//! The untraced binary: the system's own allocator, no counting.

fn main() {
    std::process::exit(perfbench::main_with(None));
}
