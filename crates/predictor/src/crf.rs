#![allow(clippy::needless_range_loop)] // index loops mirror the math notation
//! A binary linear-chain CRF layer over LSTM emissions.
//!
//! Following the paper's construction (§IV-A): the label sequence scores
//! produced by the LSTM are fed into a CRF layer, which learns the context
//! relation between labels (transition potentials between MPJP and
//! non-MPJP) and decodes the jointly most probable label sequence with the
//! Viterbi algorithm. Transition potentials are estimated from training
//! label sequences by maximum likelihood (log relative frequencies with
//! Laplace smoothing), and combined with the emission log-probabilities at
//! decode time.

use crate::features::SequenceExample;
#[cfg(test)]
use crate::linalg::log_sum_exp;
use crate::lstm::LstmLabeler;
use crate::MpjpModel;

/// Transition potentials of the binary chain.
#[derive(Debug, Clone)]
pub struct CrfLayer {
    /// `trans[a][b]` = log potential of moving from label `a` to label `b`.
    pub trans: [[f64; 2]; 2],
    /// `start[b]` = log potential of starting in label `b`.
    pub start: [f64; 2],
    /// Weight given to emissions relative to transitions.
    pub emission_weight: f64,
}

impl CrfLayer {
    /// Estimate transition potentials from gold label sequences.
    pub fn fit(sequences: &[&[bool]]) -> Self {
        let mut counts = [[1.0f64; 2]; 2]; // Laplace smoothing
        let mut starts = [1.0f64; 2];
        for seq in sequences {
            if let Some(&first) = seq.first() {
                starts[usize::from(first)] += 1.0;
            }
            for w in seq.windows(2) {
                counts[usize::from(w[0])][usize::from(w[1])] += 1.0;
            }
        }
        let mut trans = [[0.0; 2]; 2];
        for a in 0..2 {
            let total: f64 = counts[a].iter().sum();
            for b in 0..2 {
                trans[a][b] = (counts[a][b] / total).ln();
            }
        }
        let stotal: f64 = starts.iter().sum();
        let start = [(starts[0] / stotal).ln(), (starts[1] / stotal).ln()];
        CrfLayer {
            trans,
            start,
            emission_weight: 1.0,
        }
    }

    /// Viterbi decoding: the most probable label sequence given per-step
    /// emission log-scores `[neg, pos]`.
    pub fn viterbi(&self, emissions: &[[f64; 2]]) -> Vec<bool> {
        let n = emissions.len();
        if n == 0 {
            return Vec::new();
        }
        let ew = self.emission_weight;
        let mut delta = [
            self.start[0] + ew * emissions[0][0],
            self.start[1] + ew * emissions[0][1],
        ];
        let mut backptr: Vec<[usize; 2]> = Vec::with_capacity(n);
        backptr.push([0, 0]);
        for e in emissions.iter().skip(1) {
            let mut next = [f64::NEG_INFINITY; 2];
            let mut bp = [0usize; 2];
            for b in 0..2 {
                for a in 0..2 {
                    let score = delta[a] + self.trans[a][b] + ew * e[b];
                    if score > next[b] {
                        next[b] = score;
                        bp[b] = a;
                    }
                }
            }
            delta = next;
            backptr.push(bp);
        }
        // Trace back.
        let mut labels = vec![false; n];
        let mut cur = usize::from(delta[1] > delta[0]);
        labels[n - 1] = cur == 1;
        for t in (1..n).rev() {
            cur = backptr[t][cur];
            labels[t - 1] = cur == 1;
        }
        labels
    }

    /// Log partition function over all label sequences (forward algorithm),
    /// the tests' check of the chain's probabilistic consistency.
    #[cfg(test)]
    fn log_partition(&self, emissions: &[[f64; 2]]) -> f64 {
        if emissions.is_empty() {
            return 0.0;
        }
        let ew = self.emission_weight;
        let mut alpha = [
            self.start[0] + ew * emissions[0][0],
            self.start[1] + ew * emissions[0][1],
        ];
        for e in emissions.iter().skip(1) {
            let mut next = [0.0f64; 2];
            for (b, nb) in next.iter_mut().enumerate() {
                *nb = log_sum_exp(&[
                    alpha[0] + self.trans[0][b] + ew * e[b],
                    alpha[1] + self.trans[1][b] + ew * e[b],
                ]);
            }
            alpha = next;
        }
        log_sum_exp(&alpha)
    }

    /// Score of one specific label sequence, the tests' brute-force
    /// reference for Viterbi decoding.
    #[cfg(test)]
    fn sequence_score(&self, emissions: &[[f64; 2]], labels: &[bool]) -> f64 {
        if emissions.is_empty() {
            return 0.0;
        }
        let ew = self.emission_weight;
        let mut s = self.start[usize::from(labels[0])] + ew * emissions[0][usize::from(labels[0])];
        for t in 1..emissions.len() {
            let a = usize::from(labels[t - 1]);
            let b = usize::from(labels[t]);
            s += self.trans[a][b] + ew * emissions[t][b];
        }
        s
    }
}

/// The hybrid model of the paper: LSTM emissions + CRF decoding.
#[derive(Debug)]
pub struct LstmCrf {
    /// Emission model.
    pub lstm: LstmLabeler,
    /// Label-chain layer.
    pub crf: CrfLayer,
}

impl LstmCrf {
    /// Train the LSTM on `examples`, then fit the CRF on their gold label
    /// sequences.
    pub fn train(examples: &[&SequenceExample], lstm_config: crate::lstm::LstmConfig) -> Self {
        let lstm = LstmLabeler::train(examples, lstm_config);
        let label_seqs: Vec<&[bool]> = examples.iter().map(|e| e.labels.as_slice()).collect();
        let crf = CrfLayer::fit(&label_seqs);
        LstmCrf { lstm, crf }
    }

    /// Decode the full label sequence for one example.
    pub fn decode(&self, example: &SequenceExample) -> Vec<bool> {
        self.crf.viterbi(&self.lstm.emissions(example))
    }
}

impl MpjpModel for LstmCrf {
    fn predict(&self, example: &SequenceExample) -> bool {
        self.decode(example).last().copied().unwrap_or(false)
    }

    fn name(&self) -> &'static str {
        "LSTM+CRF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sticky_crf() -> CrfLayer {
        // Labels strongly persist: P(b|b)=0.9, P(n|n)=0.9.
        CrfLayer {
            trans: [[0.9f64.ln(), 0.1f64.ln()], [0.1f64.ln(), 0.9f64.ln()]],
            start: [0.5f64.ln(), 0.5f64.ln()],
            emission_weight: 1.0,
        }
    }

    #[test]
    fn viterbi_follows_strong_emissions() {
        let crf = sticky_crf();
        let em = vec![[0.0, -10.0], [0.0, -10.0], [-10.0, 0.0]];
        assert_eq!(crf.viterbi(&em), vec![false, false, true]);
    }

    #[test]
    fn viterbi_smooths_isolated_flips() {
        let crf = sticky_crf();
        // A weak positive blip in a run of negatives gets smoothed away.
        let em = vec![
            [0.0, -3.0],
            [-0.5, -0.4], // weakly positive
            [0.0, -3.0],
            [0.0, -3.0],
        ];
        assert_eq!(crf.viterbi(&em), vec![false, false, false, false]);
    }

    #[test]
    fn viterbi_empty_sequence() {
        let crf = sticky_crf();
        assert!(crf.viterbi(&[]).is_empty());
    }

    #[test]
    fn fit_learns_persistence() {
        // Sequences with long runs -> diagonal transitions dominate.
        let seqs: Vec<Vec<bool>> = vec![
            vec![false, false, false, true, true, true],
            vec![true, true, true, false, false, false],
        ];
        let refs: Vec<&[bool]> = seqs.iter().map(Vec::as_slice).collect();
        let crf = CrfLayer::fit(&refs);
        assert!(crf.trans[0][0] > crf.trans[0][1]);
        assert!(crf.trans[1][1] > crf.trans[1][0]);
    }

    #[test]
    fn partition_dominates_any_single_sequence() {
        let crf = sticky_crf();
        let em = vec![[-0.3, -1.2], [-0.7, -0.7], [-1.0, -0.4]];
        let z = crf.log_partition(&em);
        for bits in 0..8u8 {
            let labels: Vec<bool> = (0..3).map(|t| bits >> t & 1 == 1).collect();
            let s = crf.sequence_score(&em, &labels);
            assert!(s <= z + 1e-9, "sequence score {s} exceeds partition {z}");
        }
        // And the partition equals log-sum-exp of all sequence scores.
        let scores: Vec<f64> = (0..8u8)
            .map(|bits| {
                let labels: Vec<bool> = (0..3).map(|t| bits >> t & 1 == 1).collect();
                crf.sequence_score(&em, &labels)
            })
            .collect();
        assert!((log_sum_exp(&scores) - z).abs() < 1e-9);
    }

    #[test]
    fn viterbi_matches_bruteforce_argmax() {
        let crf = CrfLayer {
            trans: [[-0.2, -1.7], [-1.1, -0.4]],
            start: [-0.9, -0.5],
            emission_weight: 1.3,
        };
        let em = vec![[-0.1, -2.0], [-1.5, -0.2], [-0.8, -0.6], [-2.0, -0.1]];
        let decoded = crf.viterbi(&em);
        let mut best = (f64::NEG_INFINITY, Vec::new());
        for bits in 0..16u8 {
            let labels: Vec<bool> = (0..4).map(|t| bits >> t & 1 == 1).collect();
            let s = crf.sequence_score(&em, &labels);
            if s > best.0 {
                best = (s, labels);
            }
        }
        assert_eq!(decoded, best.1);
    }
}
