fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The traced run wants busy time to equal wall time, so the whole process gets a
    // one-thread pool. The pool reads this once, on first use, which is after this line.
    if args.windows(2).any(|w| w[0] == "--trace" && w[1] == "1") {
        std::env::set_var("USP_NUM_THREADS", "1");
    }
    std::process::exit(usp_bench::main_with_args(&args));
}
