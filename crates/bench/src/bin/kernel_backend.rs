//! Prints the form each arithmetic contract runs in on this host (`portable` or `avx2`):
//! the scan's distance kernels on the first line, the GEMMs under the trainer (the form
//! a packed weight is laid out for) on the second, the codebooks' column kernels under
//! k-means, PQ encoding and ADC tables on the third, and the ADC lookup of the
//! compressed first pass (one code per lane) on the fourth. CI runs it after the test
//! steps and fails an x86-64 job where any of them is `portable`, so a green run cannot
//! have exercised only the portable fallback.

use usp_linalg::kernel::Backend;
use usp_linalg::kernel_gemm::PackedBt;

fn main() {
    println!("scan {}", Backend::detect().name());
    println!("gemm {}", PackedBt::new(&[], 0, 0).backend().name());
    println!("columns {}", Backend::detect().name());
    println!("adc {}", Backend::detect().name());
}
