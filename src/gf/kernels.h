#pragma once
// Bulk GF(2^8) kernels over raw byte spans.
//
// Every linear operation in the protocol — y/z/s-packet formation,
// Gaussian elimination at the terminals, the secrecy analysis — bottoms
// out in one of three primitives applied to whole payloads:
//
//   axpy      y[i] ^= c * x[i]      (packet combining, the workhorse)
//   mul_row   y[i]  = c * x[i]      (row normalisation; x == y allowed)
//   xor_into  y[i] ^= x[i]          (the c == 1 fast path)
//   mad_multi ys[r][i] ^= c[r]*x[i] (fused scatter: encode up to
//                                    kMaxFusedRows output rows per pass
//                                    over the shared input, ISA-L
//                                    gf_vect_mad-style)
//   dot_multi y[i] ^= Σ c[r]*xs[r][i] (fused gather: decode one output row
//                                    from up to kMaxFusedRows inputs per
//                                    pass, ISA-L gf_vect_dot_prod-style —
//                                    the mirror of mad_multi for the
//                                    reconstruct/repair/analysis side)
//
// This header exposes them as a small vtable so the hot loops can be
// retargeted at runtime: a scalar log/exp baseline, a portable 64-bit
// SWAR (bit-sliced xtime) kernel, SSSE3/AVX2 `pshufb` split-nibble
// kernels in the style of ISA-L's Reed-Solomon routines, and a
// GFNI+AVX-512 kernel (`gf2p8affineqb`: a full GF(2^8) multiply per byte
// lane from one 8x8 bit matrix per coefficient). Only portable and gfni
// fuse rows; the others run mad_multi/dot_multi as repeated axpy. The
// active kernel is chosen once by CPUID dispatch; set_active_kernel() is
// the tests' seam for running the same computation on every kernel.
//
// Contract: all kernels compute the exact same field arithmetic, so their
// output bytes are identical for identical inputs (GF(2^8) is exact —
// there is no rounding to diverge on). The differential test in
// tests/kernel_test.cpp and the golden suite in
// tests/golden_ndjson_test.cpp (fig1 and every example spec under every
// registered kernel) enforce this.
//
// Aliasing: x and y must either not overlap or be exactly equal
// (mul_row's in-place scale). Partial overlap is undefined. For mad_multi
// the output rows must be pairwise disjoint and none may overlap x; for
// dot_multi the output must not overlap any input (inputs may repeat).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "gf/gf256.h"

namespace thinair::gf {

/// Rows one mad_multi pass fuses at most. Larger batches are tiled into
/// blocks of this size (by the kernels themselves and by gf::encode); the
/// value is gfni's register budget: eight 64-bit affine matrices plus two
/// accumulator streams stay resident in AVX-512's 32 zmm registers.
inline constexpr std::size_t kMaxFusedRows = 8;

/// One retargetable implementation of the bulk primitives.
struct Kernel {
  const char* name;  // "scalar" | "portable" | "ssse3" | "avx2" | "gfni"
  void (*axpy)(std::uint8_t c, const std::uint8_t* x, std::uint8_t* y,
               std::size_t n);
  void (*mul_row)(std::uint8_t c, const std::uint8_t* x, std::uint8_t* y,
                  std::size_t n);
  void (*xor_into)(const std::uint8_t* x, std::uint8_t* y, std::size_t n);
  /// ys[r][i] ^= c[r] * x[i] for every r < k — byte-exact equal to k
  /// repeated axpy calls; the fusing kernels stream x once per
  /// kMaxFusedRows outputs. Any k is accepted; c[r] == 0 rows are skipped.
  void (*mad_multi)(const std::uint8_t* c, std::size_t k,
                    const std::uint8_t* x, std::uint8_t* const* ys,
                    std::size_t n);
  /// y[i] ^= sum over r < k of c[r] * xs[r][i] — byte-exact equal to k
  /// repeated axpy calls into the shared output; the fusing kernels load
  /// and store y once per kMaxFusedRows inputs. Any k is accepted;
  /// c[r] == 0 inputs are skipped and never dereferenced.
  void (*dot_multi)(const std::uint8_t* c, std::size_t k,
                    const std::uint8_t* const* xs, std::uint8_t* y,
                    std::size_t n);
};

/// The byte-at-a-time log/exp baseline (always available).
[[nodiscard]] const Kernel& scalar_kernel();

/// Best SIMD kernel this CPU supports (GFNI+AVX-512 > AVX2 > SSSE3), or
/// nullptr when the build/CPU has none.
[[nodiscard]] const Kernel* simd_kernel();

/// Every kernel usable on this machine, scalar first.
[[nodiscard]] std::span<const Kernel* const> all_kernels();

/// The kernel behind gf::axpy / gf::mul_row / gf::xor_into and the
/// batches below: the best CPUID-supported kernel unless
/// set_active_kernel() chose another.
[[nodiscard]] const Kernel& active_kernel();

/// Select by name ("auto" restores CPUID dispatch). Returns false — and
/// leaves the selection unchanged — when the name is unknown or names a
/// kernel this CPU cannot run. Thread-safe (the selection is one relaxed
/// atomic slot; kernel tables themselves are immutable after init), but
/// switching mid-computation interleaves kernels across calls — callers
/// sequence selection before spawning workers, as the tests do.
[[nodiscard]] bool set_active_kernel(std::string_view name);

/// y[i] = c * x[i] over n bytes through the active kernel (x == y allowed).
inline void mul_row(GF256 c, const std::uint8_t* x, std::uint8_t* y,
                    std::size_t n) {
  active_kernel().mul_row(c.value(), x, y, n);
}

/// y[i] ^= x[i] over n bytes through the active kernel.
inline void xor_into(const std::uint8_t* x, std::uint8_t* y, std::size_t n) {
  active_kernel().xor_into(x, y, n);
}

/// Batches (coefficient, output-row) pairs against one shared input and
/// flushes them through mad_multi in blocks of kMaxFusedRows — the
/// elimination-loop shape (Matrix::row_reduce, LinearSpace back-
/// substitution) where the live rows are discovered one at a time. Zero
/// coefficients are dropped on add(). The destructor flushes whatever is
/// pending; call flush() explicitly where the results must be visible
/// before the batch goes out of scope.
class MadBatch {
 public:
  MadBatch(const std::uint8_t* x, std::size_t n)
      : x_(x), n_(n), kernel_(active_kernel()) {}
  ~MadBatch() { flush(); }
  MadBatch(const MadBatch&) = delete;
  MadBatch& operator=(const MadBatch&) = delete;

  void add(std::uint8_t c, std::uint8_t* y) {
    if (c == 0) return;
    cc_[live_] = c;
    ys_[live_] = y;
    if (++live_ == kMaxFusedRows) flush();
  }

  void flush() {
    if (live_ == 0) return;
    kernel_.mad_multi(cc_, live_, x_, ys_, n_);
    live_ = 0;
  }

 private:
  const std::uint8_t* x_;
  std::size_t n_;
  const Kernel& kernel_;
  std::uint8_t cc_[kMaxFusedRows];
  std::uint8_t* ys_[kMaxFusedRows];
  std::size_t live_ = 0;
};

/// The gather-direction mirror of MadBatch: batches (coefficient, input-
/// row) pairs against one shared output and flushes them through
/// dot_multi in blocks of kMaxFusedRows — the decode-loop shape
/// (reconstruct_y, LinearSpace::reduce, the repair back-substitutions)
/// where the live inputs are discovered one at a time. Zero coefficients
/// are dropped on add(). The destructor flushes whatever is pending; call
/// flush() explicitly where the result must be visible before the batch
/// goes out of scope.
class DotBatch {
 public:
  DotBatch(std::uint8_t* y, std::size_t n)
      : y_(y), n_(n), kernel_(active_kernel()) {}
  ~DotBatch() { flush(); }
  DotBatch(const DotBatch&) = delete;
  DotBatch& operator=(const DotBatch&) = delete;

  void add(std::uint8_t c, const std::uint8_t* x) {
    if (c == 0) return;
    cc_[live_] = c;
    xs_[live_] = x;
    if (++live_ == kMaxFusedRows) flush();
  }

  void flush() {
    if (live_ == 0) return;
    kernel_.dot_multi(cc_, live_, xs_, y_, n_);
    live_ = 0;
  }

 private:
  std::uint8_t* y_;
  std::size_t n_;
  const Kernel& kernel_;
  std::uint8_t cc_[kMaxFusedRows];
  const std::uint8_t* xs_[kMaxFusedRows];
  std::size_t live_ = 0;
};

}  // namespace thinair::gf
