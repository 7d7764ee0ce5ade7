#![allow(clippy::needless_range_loop)] // index loops mirror the math notation
//! A single-layer LSTM sequence labeler trained with BPTT.
//!
//! This is the Uni-LSTM baseline of Table IV and the emission layer of the
//! hybrid LSTM+CRF model. Per step `t` it consumes the day-`t` feature
//! vector and emits a logit for "the path is an MPJP on day t+1"; training
//! minimizes per-step sigmoid cross-entropy, exactly the setup §IV-A
//! describes.
//!
//! The nightly retrain runs thousands of steps, so a step allocates
//! nothing: the forward pass writes into a reused `Workspace` and the
//! backward pass into a reused `Backprop`. Every sum keeps the order of
//! the textbook row-major loops, so the trained parameters are
//! bit-identical to theirs (the tests keep that loop as the reference).

use maxson_testkit::rng::{Rng, SliceRandom};

use crate::features::SequenceExample;
use crate::linalg::{dot, sgd_step_vec, sigmoid, Matrix};
use crate::MpjpModel;

/// LSTM hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct LstmConfig {
    /// Hidden state width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Positive-class weight in the per-step loss.
    pub positive_weight: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            hidden: 16,
            epochs: 25,
            lr: 0.05,
            positive_weight: 2.0,
            seed: 31,
        }
    }
}

/// Trained LSTM parameters. Gate order in the stacked weights:
/// input (i), forget (f), cell candidate (g), output (o).
///
/// Both weight matrices are stored transposed, one row per input: row `c`
/// of `wx_t` is column `c` of `Wx`, the `4*hidden` weights input `c` feeds.
/// `Wx·x` then accumulates input by input, a loop over rows that
/// vectorises, and an input that is 0.0 is skipped whole (see
/// `add_columns`).
#[derive(Debug)]
pub struct LstmLabeler {
    /// Input weights, transposed: `input_dim x (4*hidden)`.
    wx_t: Matrix,
    /// Recurrent weights, transposed: `hidden x (4*hidden)`.
    wh_t: Matrix,
    /// Gate biases, `4*hidden`.
    b: Vec<f64>,
    /// Output projection, `hidden`.
    wy: Vec<f64>,
    /// Output bias.
    by: f64,
    hidden: usize,
    /// Decision threshold on the final-step probability.
    pub threshold: f64,
}

/// `acc += W v` for `W` stored transposed as `w_t`. Each `acc[r]` adds its
/// products in input order, as [`dot`] over row `r` of `W` does from the
/// same `-0.0` start, so the sums are bit-identical to `dot`'s. An input
/// whose `v[c]` is 0.0 is skipped: its products are ±0.0, and adding ±0.0
/// changes no bit of a sum that has any nonzero term.
fn add_columns(acc: &mut [f64], w_t: &Matrix, v: &[f64]) {
    for (c, &vc) in v.iter().enumerate() {
        if vc != 0.0 {
            for (a, &w) in acc.iter_mut().zip(w_t.row(c)) {
                *a += w * vc;
            }
        }
    }
}

/// `g_t += v dzᵀ`, the transposed outer-product gradient: row `c` of `g_t`
/// gains `v[c]·dz`. Rows whose `v[c]` is 0.0 are skipped; a gradient sum
/// starts at +0.0, and adding ±0.0 to it changes no bit.
fn add_outer_rows(g_t: &mut Matrix, v: &[f64], dz: &[f64]) {
    for (c, &vc) in v.iter().enumerate() {
        if vc != 0.0 {
            for (g, &d) in g_t.row_mut(c).iter_mut().zip(dz) {
                *g += d * vc;
            }
        }
    }
}

/// The forward activations of one sequence, in flat buffers reused from
/// one sequence to the next: once they have grown to the window's length,
/// a forward pass allocates nothing.
#[derive(Debug, Default)]
struct Workspace {
    /// Post-activation gates `[i | f | g | o]`, `4*hidden` per step.
    gates: Vec<f64>,
    /// Cell states `c_0 ..= c_T`, `hidden` each; `c_0` is the zero initial
    /// state, so step `t` reads `c[t]` and writes `c[t + 1]`.
    c: Vec<f64>,
    /// `tanh(c_{t+1})` per step, reused by the output and the backward pass.
    tanh_c: Vec<f64>,
    /// Hidden states, laid out like `c`.
    h: Vec<f64>,
    /// Output logit per step.
    logits: Vec<f64>,
    /// `Wh · h_t`, the recurrent half of one step's pre-activation.
    zh: Vec<f64>,
}

/// One example's gradients and backward state, reused across examples.
#[derive(Debug)]
struct Backprop {
    d_wx_t: Matrix,
    d_wh_t: Matrix,
    d_b: Vec<f64>,
    d_wy: Vec<f64>,
    dz: Vec<f64>,
    dh: Vec<f64>,
    dc: Vec<f64>,
    /// Inputs nonzero at some step of the example: the only rows of
    /// `d_wx_t` it touches, and so the only rows of `wx_t` it updates.
    used: Vec<bool>,
}

impl Backprop {
    fn new(input_dim: usize, h: usize) -> Self {
        Backprop {
            d_wx_t: Matrix::zeros(input_dim, 4 * h),
            d_wh_t: Matrix::zeros(h, 4 * h),
            d_b: vec![0.0; 4 * h],
            d_wy: vec![0.0; h],
            dz: vec![0.0; 4 * h],
            dh: vec![0.0; h],
            dc: vec![0.0; h],
            used: vec![false; input_dim],
        }
    }
}

impl LstmLabeler {
    /// Train on per-step labels of `examples`.
    pub fn train(examples: &[&SequenceExample], config: LstmConfig) -> Self {
        let input_dim = examples
            .first()
            .map_or(1, |e| e.steps.first().map_or(1, Vec::len));
        let h = config.hidden;
        let mut rng = Rng::seed_from_u64(config.seed);
        // Drawn in `Wx`'s row-major order, then transposed.
        let mut model = LstmLabeler {
            wx_t: Matrix::xavier(4 * h, input_dim, &mut rng).transpose(),
            wh_t: Matrix::xavier(4 * h, h, &mut rng).transpose(),
            b: vec![0.0; 4 * h],
            wy: (0..h).map(|_| 0.1 * (rng.gen::<f64>() - 0.5)).collect(),
            by: 0.0,
            hidden: h,
            threshold: 0.5,
        };
        // Forget-gate bias starts positive (standard trick: remember by
        // default).
        for k in h..2 * h {
            model.b[k] = 1.0;
        }
        let mut ws = Workspace::default();
        let mut bp = Backprop::new(input_dim, h);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let lr = config.lr / (1.0 + 0.05 * epoch as f64);
            for &idx in &order {
                model.train_one(examples[idx], lr, config.positive_weight, &mut ws, &mut bp);
            }
        }
        model
    }

    /// Forward one sequence into `ws`. Every sum keeps the order and the
    /// association of the textbook `z = Wx·x + (Wh·h + b)`.
    fn forward(&self, steps: &[Vec<f64>], ws: &mut Workspace) {
        let h = self.hidden;
        let n = steps.len();
        ws.gates.resize(4 * h * n, 0.0);
        ws.tanh_c.resize(h * n, 0.0);
        ws.logits.resize(n, 0.0);
        ws.zh.resize(4 * h, 0.0);
        for state in [&mut ws.c, &mut ws.h] {
            state.resize(h * (n + 1), 0.0);
            state[..h].fill(0.0);
        }
        for (t, x) in steps.iter().enumerate() {
            let z = &mut ws.gates[4 * h * t..4 * h * (t + 1)];
            z.fill(-0.0);
            add_columns(z, &self.wx_t, x);
            ws.zh.fill(-0.0);
            add_columns(&mut ws.zh, &self.wh_t, &ws.h[h * t..h * (t + 1)]);
            for ((z, zh), b) in z.iter_mut().zip(&ws.zh).zip(&self.b) {
                *z += zh + b;
            }
            let (i, rest) = z.split_at_mut(h);
            let (f, rest) = rest.split_at_mut(h);
            let (g, o) = rest.split_at_mut(h);
            for k in 0..h {
                i[k] = sigmoid(i[k]);
                f[k] = sigmoid(f[k]);
                g[k] = g[k].tanh();
                o[k] = sigmoid(o[k]);
            }
            let (c_prev, c_next) = ws.c[h * t..h * (t + 2)].split_at_mut(h);
            let tanh_c = &mut ws.tanh_c[h * t..h * (t + 1)];
            let h_next = &mut ws.h[h * (t + 1)..h * (t + 2)];
            for k in 0..h {
                c_next[k] = f[k] * c_prev[k] + i[k] * g[k];
                tanh_c[k] = c_next[k].tanh();
                h_next[k] = o[k] * tanh_c[k];
            }
            ws.logits[t] = dot(&self.wy, h_next) + self.by;
        }
    }

    /// One BPTT step on one example.
    fn train_one(
        &mut self,
        ex: &SequenceExample,
        lr: f64,
        pos_w: f64,
        ws: &mut Workspace,
        bp: &mut Backprop,
    ) {
        let h = self.hidden;
        self.forward(&ex.steps, ws);
        bp.used.fill(false);
        for x in &ex.steps {
            for (used, &v) in bp.used.iter_mut().zip(x) {
                *used |= v != 0.0;
            }
        }
        let mut d_by = 0.0;
        bp.dh.fill(0.0);
        bp.dc.fill(0.0);
        for t in (0..ex.steps.len()).rev() {
            let gates = &ws.gates[4 * h * t..4 * h * (t + 1)];
            let (i, f) = (&gates[..h], &gates[h..2 * h]);
            let (g, o) = (&gates[2 * h..3 * h], &gates[3 * h..]);
            let c_prev = &ws.c[h * t..h * (t + 1)];
            let tanh_c = &ws.tanh_c[h * t..h * (t + 1)];
            let h_prev = &ws.h[h * t..h * (t + 1)];
            let h_t = &ws.h[h * (t + 1)..h * (t + 2)];
            let y = if ex.labels[t] { 1.0 } else { 0.0 };
            let w_class = if ex.labels[t] { pos_w } else { 1.0 };
            let dlogit = (sigmoid(ws.logits[t]) - y) * w_class;
            for k in 0..h {
                bp.d_wy[k] += dlogit * h_t[k];
            }
            d_by += dlogit;
            // dh = dlogit * wy + dh from the future; the gate gradients
            // (pre-activation) follow.
            for k in 0..h {
                let dh = dlogit * self.wy[k] + bp.dh[k];
                let dc = bp.dc[k] + dh * o[k] * (1.0 - tanh_c[k] * tanh_c[k]);
                bp.dh[k] = dh;
                bp.dc[k] = dc;
                let di = dc * g[k];
                let df = dc * c_prev[k];
                let dg = dc * i[k];
                let do_ = dh * tanh_c[k];
                bp.dz[k] = di * i[k] * (1.0 - i[k]);
                bp.dz[h + k] = df * f[k] * (1.0 - f[k]);
                bp.dz[2 * h + k] = dg * (1.0 - g[k] * g[k]);
                bp.dz[3 * h + k] = do_ * o[k] * (1.0 - o[k]);
            }
            add_outer_rows(&mut bp.d_wx_t, &ex.steps[t], &bp.dz);
            add_outer_rows(&mut bp.d_wh_t, h_prev, &bp.dz);
            for (db, dz) in bp.d_b.iter_mut().zip(&bp.dz) {
                *db += dz;
            }
            // Propagate to the previous step: dh = Whᵀ dz, summed over the
            // gates in order from +0.0.
            for (c, dh) in bp.dh.iter_mut().enumerate() {
                *dh = self
                    .wh_t
                    .row(c)
                    .iter()
                    .zip(&bp.dz)
                    .fold(0.0, |acc, (w, dz)| acc + w * dz);
            }
            for k in 0..h {
                bp.dc[k] *= f[k];
            }
        }
        // An input that was 0.0 at every step has a +0.0 gradient, and
        // `w - lr * 0.0` is `w`: its row is neither updated nor cleared.
        for (c, &used) in bp.used.iter().enumerate() {
            if used {
                sgd_step_vec(self.wx_t.row_mut(c), bp.d_wx_t.row(c), lr, 5.0);
                bp.d_wx_t.row_mut(c).fill(0.0);
            }
        }
        self.wh_t.sgd_step(&bp.d_wh_t, lr, 5.0);
        sgd_step_vec(&mut self.b, &bp.d_b, lr, 5.0);
        sgd_step_vec(&mut self.wy, &bp.d_wy, lr, 5.0);
        self.by -= lr * d_by.clamp(-5.0, 5.0);
        bp.d_wh_t.data.fill(0.0);
        bp.d_b.fill(0.0);
        bp.d_wy.fill(0.0);
    }

    /// Per-step probabilities for a sequence.
    pub fn step_probabilities(&self, ex: &SequenceExample) -> Vec<f64> {
        let mut ws = Workspace::default();
        self.forward(&ex.steps, &mut ws);
        ws.logits.iter().map(|&logit| sigmoid(logit)).collect()
    }

    /// Per-step emission scores as `(score_negative, score_positive)` pairs
    /// in log space — the CRF layer's input.
    pub fn emissions(&self, ex: &SequenceExample) -> Vec<[f64; 2]> {
        self.step_probabilities(ex)
            .iter()
            .map(|&p| {
                let p = p.clamp(1e-9, 1.0 - 1e-9);
                [(1.0 - p).ln(), p.ln()]
            })
            .collect()
    }
}

impl MpjpModel for LstmLabeler {
    fn predict(&self, example: &SequenceExample) -> bool {
        self.step_probabilities(example)
            .last()
            .is_some_and(|&p| p > self.threshold)
    }

    fn name(&self) -> &'static str {
        "LSTM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{build_dataset, FeatureConfig};
    use crate::linalg::Matrix;
    use maxson_datagen::tables::build_queries;
    use maxson_trace::model::RecurrenceClass;
    use maxson_trace::{
        JsonPathCollector, JsonPathLocation, QueryRecord, SynthConfig, TraceSynthesizer,
    };

    /// A temporal task a static model struggles with: the label at the last
    /// step is the feature from TWO steps earlier (requires memory).
    fn memory_set(n: usize) -> Vec<SequenceExample> {
        let mut v = Vec::new();
        for i in 0..n {
            let bit = i % 2 == 0;
            let steps = vec![
                vec![if bit { 1.0 } else { 0.0 }, 1.0],
                vec![0.0, 1.0],
                vec![0.0, 1.0],
            ];
            v.push(SequenceExample {
                location: JsonPathLocation::new("d", "t", "c", "$.x"),
                day: 3,
                steps,
                labels: vec![false, false, bit],
            });
        }
        v
    }

    /// The trainer this module replaced, kept as the bit-for-bit reference:
    /// row-major weights, dense products, fresh buffers every step.
    struct Reference {
        wx: Matrix,
        wh: Matrix,
        b: Vec<f64>,
        wy: Vec<f64>,
        by: f64,
    }

    /// One step's forward values, as the reference's backward pass reads them.
    struct RefStep {
        x: Vec<f64>,
        i: Vec<f64>,
        f: Vec<f64>,
        g: Vec<f64>,
        o: Vec<f64>,
        c: Vec<f64>,
        h: Vec<f64>,
        c_prev: Vec<f64>,
        h_prev: Vec<f64>,
        logit: f64,
    }

    impl Reference {
        fn train(examples: &[&SequenceExample], config: LstmConfig) -> Self {
            let input_dim = examples
                .first()
                .map_or(1, |e| e.steps.first().map_or(1, Vec::len));
            let h = config.hidden;
            let mut rng = Rng::seed_from_u64(config.seed);
            let mut model = Reference {
                wx: Matrix::xavier(4 * h, input_dim, &mut rng),
                wh: Matrix::xavier(4 * h, h, &mut rng),
                b: vec![0.0; 4 * h],
                wy: (0..h).map(|_| 0.1 * (rng.gen::<f64>() - 0.5)).collect(),
                by: 0.0,
            };
            for k in h..2 * h {
                model.b[k] = 1.0;
            }
            let mut order: Vec<usize> = (0..examples.len()).collect();
            for epoch in 0..config.epochs {
                order.shuffle(&mut rng);
                let lr = config.lr / (1.0 + 0.05 * epoch as f64);
                for &idx in &order {
                    model.train_one(examples[idx], lr, config.positive_weight);
                }
            }
            model
        }

        fn forward(&self, steps: &[Vec<f64>]) -> Vec<RefStep> {
            let h = self.wy.len();
            let mut out = Vec::with_capacity(steps.len());
            let mut h_prev = vec![0.0; h];
            let mut c_prev = vec![0.0; h];
            for x in steps {
                let mut z = self.wx.matvec(x);
                let zh = self.wh.matvec(&h_prev);
                for k in 0..4 * h {
                    z[k] += zh[k] + self.b[k];
                }
                let i: Vec<f64> = (0..h).map(|k| sigmoid(z[k])).collect();
                let f: Vec<f64> = (0..h).map(|k| sigmoid(z[h + k])).collect();
                let g: Vec<f64> = (0..h).map(|k| z[2 * h + k].tanh()).collect();
                let o: Vec<f64> = (0..h).map(|k| sigmoid(z[3 * h + k])).collect();
                let c: Vec<f64> = (0..h).map(|k| f[k] * c_prev[k] + i[k] * g[k]).collect();
                let hv: Vec<f64> = (0..h).map(|k| o[k] * c[k].tanh()).collect();
                let logit = dot(&self.wy, &hv) + self.by;
                out.push(RefStep {
                    x: x.clone(),
                    i,
                    f,
                    g,
                    o,
                    c: c.clone(),
                    h: hv.clone(),
                    c_prev: c_prev.clone(),
                    h_prev: h_prev.clone(),
                    logit,
                });
                h_prev = hv;
                c_prev = c;
            }
            out
        }

        fn train_one(&mut self, ex: &SequenceExample, lr: f64, pos_w: f64) {
            let h = self.wy.len();
            let steps = self.forward(&ex.steps);
            let mut d_wx = Matrix::zeros(4 * h, self.wx.cols);
            let mut d_wh = Matrix::zeros(4 * h, h);
            let mut d_b = vec![0.0; 4 * h];
            let mut d_wy = vec![0.0; h];
            let mut d_by = 0.0;
            let mut dh_next = vec![0.0; h];
            let mut dc_next = vec![0.0; h];
            for t in (0..steps.len()).rev() {
                let s = &steps[t];
                let y = if ex.labels[t] { 1.0 } else { 0.0 };
                let w_class = if ex.labels[t] { pos_w } else { 1.0 };
                let dlogit = (sigmoid(s.logit) - y) * w_class;
                for k in 0..h {
                    d_wy[k] += dlogit * s.h[k];
                }
                d_by += dlogit;
                let mut dh: Vec<f64> = (0..h).map(|k| dlogit * self.wy[k] + dh_next[k]).collect();
                let mut dc: Vec<f64> = (0..h)
                    .map(|k| {
                        let tanh_c = s.c[k].tanh();
                        dc_next[k] + dh[k] * s.o[k] * (1.0 - tanh_c * tanh_c)
                    })
                    .collect();
                let mut dz = vec![0.0; 4 * h];
                for k in 0..h {
                    let di = dc[k] * s.g[k];
                    let df = dc[k] * s.c_prev[k];
                    let dg = dc[k] * s.i[k];
                    let do_ = dh[k] * s.c[k].tanh();
                    dz[k] = di * s.i[k] * (1.0 - s.i[k]);
                    dz[h + k] = df * s.f[k] * (1.0 - s.f[k]);
                    dz[2 * h + k] = dg * (1.0 - s.g[k] * s.g[k]);
                    dz[3 * h + k] = do_ * s.o[k] * (1.0 - s.o[k]);
                }
                d_wx.add_outer(&dz, &s.x, 1.0);
                d_wh.add_outer(&dz, &s.h_prev, 1.0);
                for k in 0..4 * h {
                    d_b[k] += dz[k];
                }
                let dh_prev = self.wh.matvec_t(&dz);
                dh[..h].copy_from_slice(&dh_prev[..h]);
                for k in 0..h {
                    dc[k] *= s.f[k];
                }
                dh_next = dh;
                dc_next = dc;
            }
            self.wx.sgd_step(&d_wx, lr, 5.0);
            self.wh.sgd_step(&d_wh, lr, 5.0);
            sgd_step_vec(&mut self.b, &d_b, lr, 5.0);
            sgd_step_vec(&mut self.wy, &d_wy, lr, 5.0);
            self.by -= lr * d_by.clamp(-5.0, 5.0);
        }
    }

    /// Train both ways and require every parameter to match bit for bit.
    fn assert_matches_reference(name: &str, examples: &[&SequenceExample], config: LstmConfig) {
        let want = Reference::train(examples, config);
        let got = LstmLabeler::train(examples, config);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.wx_t.data),
            bits(&want.wx.transpose().data),
            "{name}: wx"
        );
        assert_eq!(
            bits(&got.wh_t.data),
            bits(&want.wh.transpose().data),
            "{name}: wh"
        );
        assert_eq!(bits(&got.b), bits(&want.b), "{name}: b");
        assert_eq!(bits(&got.wy), bits(&want.wy), "{name}: wy");
        assert_eq!(got.by.to_bits(), want.by.to_bits(), "{name}: by");
        // Inference runs the same forward pass as training.
        for ex in examples {
            let probs: Vec<f64> = want
                .forward(&ex.steps)
                .iter()
                .map(|s| sigmoid(s.logit))
                .collect();
            assert_eq!(
                bits(&got.step_probabilities(ex)),
                bits(&probs),
                "{name}: probabilities"
            );
        }
    }

    fn collector_of(queries: &[maxson_trace::QueryRecord]) -> JsonPathCollector {
        let mut c = JsonPathCollector::new();
        c.observe_all(queries.iter());
        c
    }

    #[test]
    fn training_is_bit_identical_to_the_reference_on_a_table_ii_history() {
        // The benchmark's midnight history: every Table II query daily for
        // 14 days, submitted by two users.
        let mut history = Vec::new();
        for day in 0..14 {
            for (qi, q) in build_queries("mydb").iter().enumerate() {
                let paths: Vec<JsonPathLocation> = q
                    .paths
                    .iter()
                    .map(|p| JsonPathLocation::new(&q.database, &q.table, "payload", p))
                    .collect();
                for user in 0..2 {
                    history.push(QueryRecord {
                        query_id: history.len() as u64,
                        user_id: qi as u32 * 2 + user,
                        day,
                        hour: 8 + user as u8,
                        recurrence: RecurrenceClass::Daily,
                        paths: paths.clone(),
                    });
                }
            }
        }
        let ds = build_dataset(&collector_of(&history), FeatureConfig::default());
        let split = ds.split();
        assert!(split.train.len() > 50);
        assert_matches_reference("table II", &split.train, LstmConfig::default());
    }

    #[test]
    fn training_is_bit_identical_to_the_reference_on_synthesized_traces() {
        let trace = TraceSynthesizer::new(SynthConfig {
            days: 38,
            tables: 4,
            users: 8,
            templates_per_user: 2,
            adhoc_per_day: 3,
            ..Default::default()
        })
        .generate();
        let collector = collector_of(&trace.queries);
        for window in [7, 14, 30] {
            let ds = build_dataset(
                &collector,
                FeatureConfig {
                    window,
                    ..Default::default()
                },
            );
            let split = ds.split();
            assert!(split.train.len() > 40, "window {window}");
            let config = LstmConfig {
                epochs: 3,
                ..Default::default()
            };
            assert_matches_reference(&format!("window {window}"), &split.train, config);
        }
    }

    #[test]
    fn training_is_bit_identical_to_the_reference_on_the_memory_set() {
        let data = memory_set(80);
        let refs: Vec<&SequenceExample> = data.iter().collect();
        let config = LstmConfig {
            epochs: 60,
            lr: 0.1,
            hidden: 8,
            ..Default::default()
        };
        assert_matches_reference("memory set", &refs, config);
        assert_matches_reference("memory set, defaults", &refs, LstmConfig::default());
    }

    #[test]
    fn lstm_learns_temporal_dependency() {
        let data = memory_set(80);
        let refs: Vec<&SequenceExample> = data.iter().collect();
        let model = LstmLabeler::train(
            &refs,
            LstmConfig {
                epochs: 60,
                lr: 0.1,
                hidden: 8,
                ..Default::default()
            },
        );
        let correct = refs
            .iter()
            .filter(|e| model.predict(e) == e.final_label())
            .count();
        assert!(
            correct as f64 / refs.len() as f64 > 0.95,
            "LSTM learned {correct}/{}",
            refs.len()
        );
    }

    #[test]
    fn probabilities_and_emissions_shapes() {
        let data = memory_set(4);
        let refs: Vec<&SequenceExample> = data.iter().collect();
        let model = LstmLabeler::train(
            &refs,
            LstmConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let probs = model.step_probabilities(refs[0]);
        assert_eq!(probs.len(), 3);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        let em = model.emissions(refs[0]);
        assert_eq!(em.len(), 3);
        assert!(em.iter().all(|e| e[0] <= 0.0 && e[1] <= 0.0));
        assert_eq!(model.name(), "LSTM");
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = memory_set(10);
        let refs: Vec<&SequenceExample> = data.iter().collect();
        let cfg = LstmConfig {
            epochs: 3,
            ..Default::default()
        };
        let a = LstmLabeler::train(&refs, cfg);
        let b = LstmLabeler::train(&refs, cfg);
        assert_eq!(a.step_probabilities(refs[0]), b.step_probabilities(refs[0]));
    }
}
