//! Prints the distance-kernel backend this host selects (`portable` or `avx2`) and
//! nothing else. CI runs it after the test steps and fails an x86-64 job that did not
//! get `avx2`, so a green run cannot have exercised only the portable fallback.

fn main() {
    println!("{}", usp_linalg::kernel::Backend::detect().name());
}
