/* SIMD kernels for the hot flat loops: compiled-plan replay spread and
 * gather (indexed scatter/gather multiply-accumulate), radix-2 and
 * mixed-radix (2/3/5) FFT lines over interleaved complex data, and
 * deapodization rows
 * (pointwise complex-by-real scale).
 *
 * Numerics contract: every vector body performs, per output element,
 * exactly the operation sequence of the scalar loop it replaces — the
 * interleaved (re, im) pair rides in the two lanes of a 128-bit register
 * (or one 128-bit half of a 256-bit register), the real weight/twiddle is
 * broadcast to both lanes, and no fused multiply-add is ever emitted
 * (intrinsics are not contracted; the scalar C fallback is compiled with
 * -ffp-contract=off). Per-lane IEEE mul/add/div round exactly like their
 * scalar counterparts, so SIMD and scalar results are bit-identical; the
 * OCaml test suite still only asserts the documented <= 4 ULP contract.
 *
 * Ordering constraints honoured here:
 *  - spread within one sample may process window points two at a time
 *    (the read-modify-writes stay in entry order, so even a repeated
 *    target cell accumulates in the scalar order);
 *  - shard replay streams entries strictly one at a time: adjacent
 *    entries of a shard can come from different samples yet target the
 *    same cell, and the region-ownership bit-identity guarantee needs
 *    serial accumulation order per cell;
 *  - gather accumulates each sample's window points in entry order into
 *    one (re, im) register pair;
 *  - a butterfly pass pairs j and j+1 of the same block, which touch
 *    disjoint elements, so two butterflies per iteration is exact.
 *
 * None of these functions allocate, raise, or call back into the
 * runtime, so the OCaml externals are [@@noalloc] and plain arrays can
 * be accessed in place (no GC can move them mid-call).
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <string.h>

#if defined(__x86_64__) || defined(_M_X64)
#define JIGSAW_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define JIGSAW_SIMD_NEON 1
#include <arm_neon.h>
#endif

/* Implementation selector mirrored from the OCaml side:
 * 1 = scalar C, 2 = AVX2, 3 = NEON. (0/"off" never reaches C: the OCaml
 * wrappers fall back to the OCaml loops.) */
#define IMPL_SCALAR 1
#define IMPL_AVX2 2
#define IMPL_NEON 3

static int jigsaw_simd_impl = IMPL_SCALAR;

CAMLprim value jigsaw_simd_probe(value unit)
{
  (void)unit;
#if defined(JIGSAW_SIMD_X86) && defined(__GNUC__)
  return Val_long(__builtin_cpu_supports("avx2") ? IMPL_AVX2 : IMPL_SCALAR);
#elif defined(JIGSAW_SIMD_NEON)
  return Val_long(IMPL_NEON);
#else
  return Val_long(IMPL_SCALAR);
#endif
}

CAMLprim value jigsaw_simd_set(value impl)
{
  jigsaw_simd_impl = (int)Long_val(impl);
  return Val_unit;
}

/* Float arrays are flat double payloads; int arrays are tagged words. */
#define FLOATS(v) ((const double *)(v))
#define IDX(v, i) Long_val(Field((v), (i)))

/* ------------------------------------------------------------------ */
/* Replay spread: out[idx[e]] += wgt[e] * values[e / points].          */

static void spread_scalar(const double *vals, value idx, const double *wgt,
                          double *out, long m, long p)
{
  for (long j = 0; j < m; j++) {
    double vr = vals[2 * j], vi = vals[2 * j + 1];
    long base = j * p;
    for (long i = 0; i < p; i++) {
      long k = IDX(idx, base + i);
      double w = wgt[base + i];
      out[2 * k] += w * vr;
      out[2 * k + 1] += w * vi;
    }
  }
}

#ifdef JIGSAW_SIMD_X86
__attribute__((target("avx2"))) static void
spread_avx2(const double *vals, value idx, const double *wgt, double *out,
            long m, long p)
{
  for (long j = 0; j < m; j++) {
    __m128d v = _mm_loadu_pd(vals + 2 * j); /* (vr, vi) */
    __m256d vv = _mm256_broadcast_pd((const __m128d *)(vals + 2 * j));
    long base = j * p;
    long i = 0;
    /* Four window points per iteration: one 256-bit weight load fanned
     * out to (w0,w0,w1,w1) / (w2,w2,w3,w3) by in-register permutes, two
     * 256-bit multiplies, then four 128-bit read-modify-writes in entry
     * order (within one sample all window cells are distinct, so each
     * cell still accumulates exactly once per pass, in scalar order). */
    for (; i + 4 <= p; i += 4) {
      long k0 = IDX(idx, base + i);
      long k1 = IDX(idx, base + i + 1);
      long k2 = IDX(idx, base + i + 2);
      long k3 = IDX(idx, base + i + 3);
      __m256d w = _mm256_loadu_pd(wgt + base + i); /* (w0,w1,w2,w3) */
      __m256d wl = _mm256_permute4x64_pd(w, 0x50); /* (w0,w0,w1,w1) */
      __m256d wh = _mm256_permute4x64_pd(w, 0xfa); /* (w2,w2,w3,w3) */
      __m256d t0 = _mm256_mul_pd(wl, vv);
      __m256d t1 = _mm256_mul_pd(wh, vv);
      if (k1 == k0 + 1 && k2 == k1 + 1 && k3 == k2 + 1) {
        /* Window x-rows are grid-contiguous except at the wrap seam, so
         * most quads land on four consecutive cells: two 256-bit
         * read-modify-writes perform the identical per-lane adds. */
        _mm256_storeu_pd(out + 2 * k0,
                         _mm256_add_pd(_mm256_loadu_pd(out + 2 * k0), t0));
        _mm256_storeu_pd(out + 2 * k2,
                         _mm256_add_pd(_mm256_loadu_pd(out + 2 * k2), t1));
      } else {
        /* A quad that straddles a window-row boundary still splits into
         * two within-row pairs; keep each contiguous pair as one 256-bit
         * read-modify-write and only degrade to 128-bit at a wrap seam. */
        if (k1 == k0 + 1)
          _mm256_storeu_pd(out + 2 * k0,
                           _mm256_add_pd(_mm256_loadu_pd(out + 2 * k0), t0));
        else {
          _mm_storeu_pd(out + 2 * k0,
                        _mm_add_pd(_mm_loadu_pd(out + 2 * k0),
                                   _mm256_castpd256_pd128(t0)));
          _mm_storeu_pd(out + 2 * k1,
                        _mm_add_pd(_mm_loadu_pd(out + 2 * k1),
                                   _mm256_extractf128_pd(t0, 1)));
        }
        if (k3 == k2 + 1)
          _mm256_storeu_pd(out + 2 * k2,
                           _mm256_add_pd(_mm256_loadu_pd(out + 2 * k2), t1));
        else {
          _mm_storeu_pd(out + 2 * k2,
                        _mm_add_pd(_mm_loadu_pd(out + 2 * k2),
                                   _mm256_castpd256_pd128(t1)));
          _mm_storeu_pd(out + 2 * k3,
                        _mm_add_pd(_mm_loadu_pd(out + 2 * k3),
                                   _mm256_extractf128_pd(t1, 1)));
        }
      }
    }
    for (; i < p; i++) {
      long k = IDX(idx, base + i);
      __m128d w = _mm_loaddup_pd(wgt + base + i);
      _mm_storeu_pd(out + 2 * k,
                    _mm_add_pd(_mm_loadu_pd(out + 2 * k), _mm_mul_pd(w, v)));
    }
  }
}
#endif

#ifdef JIGSAW_SIMD_NEON
static void spread_neon(const double *vals, value idx, const double *wgt,
                        double *out, long m, long p)
{
  for (long j = 0; j < m; j++) {
    float64x2_t v = vld1q_f64(vals + 2 * j);
    long base = j * p;
    for (long i = 0; i < p; i++) {
      long k = IDX(idx, base + i);
      float64x2_t w = vdupq_n_f64(wgt[base + i]);
      vst1q_f64(out + 2 * k,
                vaddq_f64(vld1q_f64(out + 2 * k), vmulq_f64(w, v)));
    }
  }
}
#endif

CAMLprim value jigsaw_simd_spread(value values, value idx, value wgt,
                                  value out)
{
  long m = (long)Caml_ba_array_val(values)->dim[0] / 2;
  if (m == 0) return Val_unit;
  long p = (long)Wosize_val(idx) / m;
  const double *vals = (const double *)Caml_ba_data_val(values);
  double *o = (double *)Caml_ba_data_val(out);
  switch (jigsaw_simd_impl) {
#ifdef JIGSAW_SIMD_X86
  case IMPL_AVX2: spread_avx2(vals, idx, FLOATS(wgt), o, m, p); break;
#endif
#ifdef JIGSAW_SIMD_NEON
  case IMPL_NEON: spread_neon(vals, idx, FLOATS(wgt), o, m, p); break;
#endif
  default: spread_scalar(vals, idx, FLOATS(wgt), o, m, p); break;
  }
  return Val_unit;
}

/* ------------------------------------------------------------------ */
/* Shard replay: the region-sharded entry stream (sample, index,
 * weight). Entries are processed strictly one at a time — adjacent
 * entries from different samples may target the same cell, and the
 * bit-identity contract requires serial accumulation order per cell. */

static void shard_scalar(const double *vals, value smp, value idx,
                         const double *wgt, double *out, long n)
{
  for (long e = 0; e < n; e++) {
    long j = IDX(smp, e);
    long k = IDX(idx, e);
    double w = wgt[e];
    out[2 * k] += w * vals[2 * j];
    out[2 * k + 1] += w * vals[2 * j + 1];
  }
}

#ifdef JIGSAW_SIMD_X86
__attribute__((target("avx2"))) static void
shard_avx2(const double *vals, value smp, value idx, const double *wgt,
           double *out, long n)
{
  for (long e = 0; e < n; e++) {
    long j = IDX(smp, e);
    long k = IDX(idx, e);
    __m128d w = _mm_loaddup_pd(wgt + e);
    __m128d v = _mm_loadu_pd(vals + 2 * j);
    _mm_storeu_pd(out + 2 * k,
                  _mm_add_pd(_mm_loadu_pd(out + 2 * k), _mm_mul_pd(w, v)));
  }
}
#endif

#ifdef JIGSAW_SIMD_NEON
static void shard_neon(const double *vals, value smp, value idx,
                       const double *wgt, double *out, long n)
{
  for (long e = 0; e < n; e++) {
    long j = IDX(smp, e);
    long k = IDX(idx, e);
    float64x2_t w = vdupq_n_f64(wgt[e]);
    float64x2_t v = vld1q_f64(vals + 2 * j);
    vst1q_f64(out + 2 * k, vaddq_f64(vld1q_f64(out + 2 * k), vmulq_f64(w, v)));
  }
}
#endif

CAMLprim value jigsaw_simd_spread_shard(value values, value smp, value idx,
                                        value wgt, value out)
{
  long n = (long)Wosize_val(idx);
  const double *vals = (const double *)Caml_ba_data_val(values);
  double *o = (double *)Caml_ba_data_val(out);
  switch (jigsaw_simd_impl) {
#ifdef JIGSAW_SIMD_X86
  case IMPL_AVX2: shard_avx2(vals, smp, idx, FLOATS(wgt), o, n); break;
#endif
#ifdef JIGSAW_SIMD_NEON
  case IMPL_NEON: shard_neon(vals, smp, idx, FLOATS(wgt), o, n); break;
#endif
  default: shard_scalar(vals, smp, idx, FLOATS(wgt), o, n); break;
  }
  return Val_unit;
}

/* ------------------------------------------------------------------ */
/* Replay gather over the sample range [lo, hi):
 * out[j] = sum_i wgt[j*p+i] * grid[idx[j*p+i]], accumulated in entry
 * order from (0, 0) exactly like the scalar loop. */

static void gather_scalar(const double *grid, value idx, const double *wgt,
                          double *out, long p, long lo, long hi)
{
  for (long j = lo; j < hi; j++) {
    long base = j * p;
    double ar = 0.0, ai = 0.0;
    for (long i = 0; i < p; i++) {
      long k = IDX(idx, base + i);
      double w = wgt[base + i];
      ar += w * grid[2 * k];
      ai += w * grid[2 * k + 1];
    }
    out[2 * j] = ar;
    out[2 * j + 1] = ai;
  }
}

#ifdef JIGSAW_SIMD_X86
__attribute__((target("avx2"))) static void
gather_avx2(const double *grid, value idx, const double *wgt, double *out,
            long p, long lo, long hi)
{
  for (long j = lo; j < hi; j++) {
    long base = j * p;
    __m128d acc = _mm_setzero_pd();
    for (long i = 0; i < p; i++) {
      long k = IDX(idx, base + i);
      __m128d w = _mm_loaddup_pd(wgt + base + i);
      acc = _mm_add_pd(acc, _mm_mul_pd(w, _mm_loadu_pd(grid + 2 * k)));
    }
    _mm_storeu_pd(out + 2 * j, acc);
  }
}
#endif

#ifdef JIGSAW_SIMD_NEON
static void gather_neon(const double *grid, value idx, const double *wgt,
                        double *out, long p, long lo, long hi)
{
  for (long j = lo; j < hi; j++) {
    long base = j * p;
    float64x2_t acc = vdupq_n_f64(0.0);
    for (long i = 0; i < p; i++) {
      long k = IDX(idx, base + i);
      float64x2_t w = vdupq_n_f64(wgt[base + i]);
      acc = vaddq_f64(acc, vmulq_f64(w, vld1q_f64(grid + 2 * k)));
    }
    vst1q_f64(out + 2 * j, acc);
  }
}
#endif

CAMLprim value jigsaw_simd_gather(value grid, value idx, value wgt, value out,
                                  value lo, value hi)
{
  long m = (long)Caml_ba_array_val(out)->dim[0] / 2;
  if (m == 0) return Val_unit;
  long p = (long)Wosize_val(idx) / m;
  const double *g = (const double *)Caml_ba_data_val(grid);
  double *o = (double *)Caml_ba_data_val(out);
  long l = Long_val(lo), h = Long_val(hi);
  switch (jigsaw_simd_impl) {
#ifdef JIGSAW_SIMD_X86
  case IMPL_AVX2: gather_avx2(g, idx, FLOATS(wgt), o, p, l, h); break;
#endif
#ifdef JIGSAW_SIMD_NEON
  case IMPL_NEON: gather_neon(g, idx, FLOATS(wgt), o, p, l, h); break;
#endif
  default: gather_scalar(g, idx, FLOATS(wgt), o, p, l, h); break;
  }
  return Val_unit;
}

CAMLprim value jigsaw_simd_gather_bc(value *argv, int argn)
{
  (void)argn;
  return jigsaw_simd_gather(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5]);
}

/* ------------------------------------------------------------------ */
/* Radix-2 DIT butterfly lines over interleaved complex data: the exact
 * loop structure of Fft1d.radix2_at (swaps through the sub-line table,
 * then log2 n passes reading the precomputed interleaved twiddle table). */

static void fft_line_scalar(double *v, value rev, const double *tw, long n)
{
  for (long i = 0; i < n; i++) {
    long j = IDX(rev, i);
    if (j > i) {
      double tr = v[2 * i], ti = v[2 * i + 1];
      v[2 * i] = v[2 * j];
      v[2 * i + 1] = v[2 * j + 1];
      v[2 * j] = tr;
      v[2 * j + 1] = ti;
    }
  }
  for (long len = 2; len <= n; len <<= 1) {
    long half = len >> 1;
    long step = n / len;
    for (long i0 = 0; i0 < n; i0 += len) {
      for (long j = 0; j < half; j++) {
        long wi = 2 * (j * step);
        double wr = tw[wi], wim = tw[wi + 1];
        double *a = v + 2 * (i0 + j);
        double *b = a + 2 * half;
        double br = b[0], bi = b[1];
        double tr = wr * br - wim * bi;
        double ti = wr * bi + wim * br;
        double ar = a[0], ai = a[1];
        a[0] = ar + tr;
        a[1] = ai + ti;
        b[0] = ar - tr;
        b[1] = ai - ti;
      }
    }
  }
}

#ifdef JIGSAW_SIMD_X86
/* Complex multiply via addsub keeps per-lane operation order scalar:
 * t = addsub(w_re * (br, bi), w_im * (bi, br))
 *   = (wr*br - wim*bi, wr*bi + wim*br). */
__attribute__((target("avx2"))) static void
fft_line_avx2(double *v, value rev, const double *tw, long n)
{
  for (long i = 0; i < n; i++) {
    long j = IDX(rev, i);
    if (j > i) {
      __m128d a = _mm_loadu_pd(v + 2 * i), b = _mm_loadu_pd(v + 2 * j);
      _mm_storeu_pd(v + 2 * i, b);
      _mm_storeu_pd(v + 2 * j, a);
    }
  }
  for (long len = 2; len <= n; len <<= 1) {
    long half = len >> 1;
    long step = n / len;
    for (long i0 = 0; i0 < n; i0 += len) {
      long j = 0;
      /* Two butterflies per iteration: j and j+1 touch disjoint
       * elements of the same block, so pairing them is exact. */
      for (; j + 2 <= half; j += 2) {
        long w0 = 2 * (j * step), w1 = 2 * ((j + 1) * step);
        __m256d wre = _mm256_setr_pd(tw[w0], tw[w0], tw[w1], tw[w1]);
        __m256d wim =
            _mm256_setr_pd(tw[w0 + 1], tw[w0 + 1], tw[w1 + 1], tw[w1 + 1]);
        double *ap = v + 2 * (i0 + j);
        double *bp = ap + 2 * half;
        __m256d b = _mm256_loadu_pd(bp);
        __m256d bsw = _mm256_shuffle_pd(b, b, 0x5);
        __m256d t = _mm256_addsub_pd(_mm256_mul_pd(wre, b),
                                     _mm256_mul_pd(wim, bsw));
        __m256d a = _mm256_loadu_pd(ap);
        _mm256_storeu_pd(ap, _mm256_add_pd(a, t));
        _mm256_storeu_pd(bp, _mm256_sub_pd(a, t));
      }
      for (; j < half; j++) {
        long w0 = 2 * (j * step);
        __m128d wre = _mm_loaddup_pd(tw + w0);
        __m128d wim = _mm_loaddup_pd(tw + w0 + 1);
        double *ap = v + 2 * (i0 + j);
        double *bp = ap + 2 * half;
        __m128d b = _mm_loadu_pd(bp);
        __m128d bsw = _mm_shuffle_pd(b, b, 0x1);
        __m128d t =
            _mm_addsub_pd(_mm_mul_pd(wre, b), _mm_mul_pd(wim, bsw));
        __m128d a = _mm_loadu_pd(ap);
        _mm_storeu_pd(ap, _mm_add_pd(a, t));
        _mm_storeu_pd(bp, _mm_sub_pd(a, t));
      }
    }
  }
}
#endif

#ifdef JIGSAW_SIMD_NEON
static void fft_line_neon(double *v, value rev, const double *tw, long n)
{
  /* addsub is emulated by multiplying the odd product with (-1, 1):
   * x * -1.0 is exact, so lane 0 computes p0 + (-q0) = p0 - q0 with
   * scalar rounding. */
  const float64x2_t sgn = vcombine_f64(vdup_n_f64(-1.0), vdup_n_f64(1.0));
  for (long i = 0; i < n; i++) {
    long j = IDX(rev, i);
    if (j > i) {
      float64x2_t a = vld1q_f64(v + 2 * i), b = vld1q_f64(v + 2 * j);
      vst1q_f64(v + 2 * i, b);
      vst1q_f64(v + 2 * j, a);
    }
  }
  for (long len = 2; len <= n; len <<= 1) {
    long half = len >> 1;
    long step = n / len;
    for (long i0 = 0; i0 < n; i0 += len) {
      for (long j = 0; j < half; j++) {
        long wi = 2 * (j * step);
        float64x2_t wre = vdupq_n_f64(tw[wi]);
        float64x2_t wim = vdupq_n_f64(tw[wi + 1]);
        double *ap = v + 2 * (i0 + j);
        double *bp = ap + 2 * half;
        float64x2_t b = vld1q_f64(bp);
        float64x2_t bsw = vextq_f64(b, b, 1);
        float64x2_t t =
            vaddq_f64(vmulq_f64(wre, b), vmulq_f64(vmulq_f64(wim, bsw), sgn));
        float64x2_t a = vld1q_f64(ap);
        vst1q_f64(ap, vaddq_f64(a, t));
        vst1q_f64(bp, vsubq_f64(a, t));
      }
    }
  }
}
#endif

/* ------------------------------------------------------------------ */
/* FFT lines (n = 2^a 3^b 5^c): the exact loop structure of
 * Fft1d.lines. Per line: the digit-reversal permutation applied in
 * place by following its cycles ([perm] holds each cycle as its length
 * then its positions; empty for a power of two, whose bit reversal is
 * the sub-line table [rev]), the n/p radix-2 sub-lines through the
 * kernels above, then the radix-3/5 passes listed
 * in [stages] as (radix, span, twiddle offset) triples. [stw] holds the
 * radix constants k3, c51, c52, s51, s52 then every pass's interleaved
 * twiddles w_{rL}^{pq}, p-major (q = 0 .. L-1 for each p = 1 .. r-1, so
 * the twiddles of q and q+1 are adjacent). Each vector body
 * computes, per output lane, the scalar expression sequence of the
 * OCaml pass: the complex multiply is the addsub form used by the
 * radix-2 kernel, and i*e is a lane swap (negated for the conjugate
 * output; x - (-y) rounds exactly like x + y). */

static void permute_line(double *v, value perm)
{
  long len = (long)Wosize_val(perm);
  long k = 0;
  while (k < len) {
    long cl = IDX(perm, k);
    long c0 = k + 1;
    long d = IDX(perm, c0);
    double held[2];
    memcpy(held, v + 2 * d, sizeof held);
    for (long j = c0 + 1; j < c0 + cl; j++) {
      long s = IDX(perm, j);
      memcpy(v + 2 * d, v + 2 * s, 2 * sizeof(double));
      d = s;
    }
    memcpy(v + 2 * d, held, sizeof held);
    k = c0 + cl;
  }
}

static void radix3_q(double *v, const double *tw, double k3, long b,
                     long q, long l)
{
  double *x0 = v + 2 * (b + q), *x1 = x0 + 2 * l, *x2 = x1 + 2 * l;
  const double *w1 = tw + 2 * q, *w2 = w1 + 2 * l;
  double a1r = w1[0] * x1[0] - w1[1] * x1[1];
  double a1i = w1[0] * x1[1] + w1[1] * x1[0];
  double a2r = w2[0] * x2[0] - w2[1] * x2[1];
  double a2i = w2[0] * x2[1] + w2[1] * x2[0];
  double a0r = x0[0], a0i = x0[1];
  double tr = a1r + a2r, ti = a1i + a2i;
  double er = k3 * (a1r - a2r), ei = k3 * (a1i - a2i);
  double br = a0r - 0.5 * tr, bi = a0i - 0.5 * ti;
  x0[0] = a0r + tr;
  x0[1] = a0i + ti;
  x1[0] = br - ei;
  x1[1] = bi + er;
  x2[0] = br + ei;
  x2[1] = bi - er;
}

static void radix5_q(double *v, const double *tw, const double *c, long b,
                     long q, long l)
{
  double c1 = c[1], c2 = c[2], s1 = c[3], s2 = c[4];
  double *x0 = v + 2 * (b + q), *x1 = x0 + 2 * l, *x2 = x1 + 2 * l;
  double *x3 = x2 + 2 * l, *x4 = x3 + 2 * l;
  const double *w1 = tw + 2 * q, *w2 = w1 + 2 * l;
  const double *w3 = w2 + 2 * l, *w4 = w3 + 2 * l;
  double a1r = w1[0] * x1[0] - w1[1] * x1[1];
  double a1i = w1[0] * x1[1] + w1[1] * x1[0];
  double a2r = w2[0] * x2[0] - w2[1] * x2[1];
  double a2i = w2[0] * x2[1] + w2[1] * x2[0];
  double a3r = w3[0] * x3[0] - w3[1] * x3[1];
  double a3i = w3[0] * x3[1] + w3[1] * x3[0];
  double a4r = w4[0] * x4[0] - w4[1] * x4[1];
  double a4i = w4[0] * x4[1] + w4[1] * x4[0];
  double a0r = x0[0], a0i = x0[1];
  double t1r = a1r + a4r, t1i = a1i + a4i;
  double t2r = a2r + a3r, t2i = a2i + a3i;
  double t3r = a1r - a4r, t3i = a1i - a4i;
  double t4r = a2r - a3r, t4i = a2i - a3i;
  double b1r = a0r + c1 * t1r + c2 * t2r, b1i = a0i + c1 * t1i + c2 * t2i;
  double b2r = a0r + c2 * t1r + c1 * t2r, b2i = a0i + c2 * t1i + c1 * t2i;
  double e1r = s1 * t3r + s2 * t4r, e1i = s1 * t3i + s2 * t4i;
  double e2r = s2 * t3r - s1 * t4r, e2i = s2 * t3i - s1 * t4i;
  x0[0] = a0r + t1r + t2r;
  x0[1] = a0i + t1i + t2i;
  x1[0] = b1r - e1i;
  x1[1] = b1i + e1r;
  x4[0] = b1r + e1i;
  x4[1] = b1i - e1r;
  x2[0] = b2r - e2i;
  x2[1] = b2i + e2r;
  x3[0] = b2r + e2i;
  x3[1] = b2i - e2r;
}

#ifdef JIGSAW_SIMD_X86
/* (q, q+1) complex multiply by their adjacent twiddles w[0..3]. */
__attribute__((target("avx2"))) static inline __m256d
cmul_pair(__m256d x, const double *w)
{
  __m256d ww = _mm256_loadu_pd(w);
  __m256d wre = _mm256_movedup_pd(ww);
  __m256d wim = _mm256_permute_pd(ww, 0xF);
  __m256d xsw = _mm256_shuffle_pd(x, x, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(wre, x), _mm256_mul_pd(wim, xsw));
}

/* b + i e and b - i e, lane by lane as (br - ei, bi + er) and
 * (br + ei, bi - er). */
__attribute__((target("avx2"))) static inline void
plus_minus_i(__m256d b, __m256d e, __m256d *plus, __m256d *minus)
{
  const __m256d neg = _mm256_set1_pd(-0.0);
  __m256d esw = _mm256_shuffle_pd(e, e, 0x5);
  *plus = _mm256_addsub_pd(b, esw);
  *minus = _mm256_addsub_pd(b, _mm256_xor_pd(esw, neg));
}

__attribute__((target("avx2"))) static void
radix3_avx2(double *v, const double *tw, double k3, long b, long l)
{
  const __m256d vk3 = _mm256_set1_pd(k3), half = _mm256_set1_pd(0.5);
  long q = 0;
  for (; q + 2 <= l; q += 2) {
    double *p0 = v + 2 * (b + q), *p1 = p0 + 2 * l, *p2 = p1 + 2 * l;
    const double *w = tw + 2 * q;
    __m256d a1 = cmul_pair(_mm256_loadu_pd(p1), w);
    __m256d a2 = cmul_pair(_mm256_loadu_pd(p2), w + 2 * l);
    __m256d a0 = _mm256_loadu_pd(p0);
    __m256d t = _mm256_add_pd(a1, a2);
    __m256d e = _mm256_mul_pd(vk3, _mm256_sub_pd(a1, a2));
    __m256d bb = _mm256_sub_pd(a0, _mm256_mul_pd(half, t));
    __m256d x1, x2;
    plus_minus_i(bb, e, &x1, &x2);
    _mm256_storeu_pd(p0, _mm256_add_pd(a0, t));
    _mm256_storeu_pd(p1, x1);
    _mm256_storeu_pd(p2, x2);
  }
  for (; q < l; q++) radix3_q(v, tw, k3, b, q, l);
}

__attribute__((target("avx2"))) static void
radix5_avx2(double *v, const double *tw, const double *c, long b, long l)
{
  const __m256d c1 = _mm256_set1_pd(c[1]), c2 = _mm256_set1_pd(c[2]);
  const __m256d s1 = _mm256_set1_pd(c[3]), s2 = _mm256_set1_pd(c[4]);
  long q = 0;
  for (; q + 2 <= l; q += 2) {
    double *p0 = v + 2 * (b + q), *p1 = p0 + 2 * l, *p2 = p1 + 2 * l;
    double *p3 = p2 + 2 * l, *p4 = p3 + 2 * l;
    const double *w = tw + 2 * q;
    __m256d a1 = cmul_pair(_mm256_loadu_pd(p1), w);
    __m256d a2 = cmul_pair(_mm256_loadu_pd(p2), w + 2 * l);
    __m256d a3 = cmul_pair(_mm256_loadu_pd(p3), w + 4 * l);
    __m256d a4 = cmul_pair(_mm256_loadu_pd(p4), w + 6 * l);
    __m256d a0 = _mm256_loadu_pd(p0);
    __m256d t1 = _mm256_add_pd(a1, a4), t2 = _mm256_add_pd(a2, a3);
    __m256d t3 = _mm256_sub_pd(a1, a4), t4 = _mm256_sub_pd(a2, a3);
    __m256d b1 = _mm256_add_pd(_mm256_add_pd(a0, _mm256_mul_pd(c1, t1)),
                               _mm256_mul_pd(c2, t2));
    __m256d b2 = _mm256_add_pd(_mm256_add_pd(a0, _mm256_mul_pd(c2, t1)),
                               _mm256_mul_pd(c1, t2));
    __m256d e1 = _mm256_add_pd(_mm256_mul_pd(s1, t3), _mm256_mul_pd(s2, t4));
    __m256d e2 = _mm256_sub_pd(_mm256_mul_pd(s2, t3), _mm256_mul_pd(s1, t4));
    __m256d x1, x4, x2, x3;
    plus_minus_i(b1, e1, &x1, &x4);
    plus_minus_i(b2, e2, &x2, &x3);
    _mm256_storeu_pd(p0, _mm256_add_pd(_mm256_add_pd(a0, t1), t2));
    _mm256_storeu_pd(p1, x1);
    _mm256_storeu_pd(p2, x2);
    _mm256_storeu_pd(p3, x3);
    _mm256_storeu_pd(p4, x4);
  }
  for (; q < l; q++) radix5_q(v, tw, c, b, q, l);
}
#endif

static void radix2_sublines(double *line, value rev, const double *tw2,
                            long p, long count)
{
  for (long s = 0; s < count; s++) {
    double *sub = line + 2 * s * p;
    switch (jigsaw_simd_impl) {
#ifdef JIGSAW_SIMD_X86
    case IMPL_AVX2: fft_line_avx2(sub, rev, tw2, p); break;
#endif
#ifdef JIGSAW_SIMD_NEON
    case IMPL_NEON: fft_line_neon(sub, rev, tw2, p); break;
#endif
    default: fft_line_scalar(sub, rev, tw2, p); break;
    }
  }
}

CAMLprim value jigsaw_simd_fft_mixed_batch(value v, value perm, value stages,
                                           value stw, value rev, value tw,
                                           value off, value count, value len)
{
  long n = Long_val(len), c = Long_val(count);
  long p = (long)Wosize_val(rev);
  long nst = (long)Wosize_val(stages) / 3;
  const double *st = FLOATS(stw);
  const double *tw2 = FLOATS(tw);
  double *data = (double *)Caml_ba_data_val(v) + 2 * Long_val(off);
  for (long li = 0; li < c; li++) {
    double *line = data + 2 * li * n;
    permute_line(line, perm);
    if (p > 1) radix2_sublines(line, rev, tw2, p, n / p);
    for (long s = 0; s < nst; s++) {
      long r = IDX(stages, 3 * s), l = IDX(stages, 3 * s + 1);
      const double *stw_s = st + IDX(stages, 3 * s + 2);
      for (long b = 0; b < n; b += r * l) {
        if (r == 3) {
#ifdef JIGSAW_SIMD_X86
          if (jigsaw_simd_impl == IMPL_AVX2) {
            radix3_avx2(line, stw_s, st[0], b, l);
            continue;
          }
#endif
          for (long q = 0; q < l; q++) radix3_q(line, stw_s, st[0], b, q, l);
        } else {
#ifdef JIGSAW_SIMD_X86
          if (jigsaw_simd_impl == IMPL_AVX2) {
            radix5_avx2(line, stw_s, st, b, l);
            continue;
          }
#endif
          for (long q = 0; q < l; q++) radix5_q(line, stw_s, st, b, q, l);
        }
      }
    }
  }
  return Val_unit;
}

CAMLprim value jigsaw_simd_fft_mixed_batch_bc(value *argv, int argn)
{
  (void)argn;
  return jigsaw_simd_fft_mixed_batch(argv[0], argv[1], argv[2], argv[3],
                                     argv[4], argv[5], argv[6], argv[7],
                                     argv[8]);
}

/* ------------------------------------------------------------------ */
/* Deapodization row: dst[doff+i] = src[soff+i] / ((f[foff+i]*fy)*fz)
 * for i in [0, len). fz = 1.0 in 2D preserves the left-associated
 * rounding of the 3D (f*dy)*dz product bit for bit. */

static void deapod_scalar(double *dst, long doff, const double *src,
                          long soff, const double *f, long foff, long len,
                          double fy, double fz)
{
  for (long i = 0; i < len; i++) {
    double s = 1.0 / ((f[foff + i] * fy) * fz);
    dst[2 * (doff + i)] = s * src[2 * (soff + i)];
    dst[2 * (doff + i) + 1] = s * src[2 * (soff + i) + 1];
  }
}

#ifdef JIGSAW_SIMD_X86
__attribute__((target("avx2"))) static void
deapod_avx2(double *dst, long doff, const double *src, long soff,
            const double *f, long foff, long len, double fy, double fz)
{
  __m128d one = _mm_set1_pd(1.0);
  __m128d vfy = _mm_set1_pd(fy), vfz = _mm_set1_pd(fz);
  long i = 0;
  for (; i + 2 <= len; i += 2) {
    __m128d ff = _mm_loadu_pd(f + foff + i);
    __m128d s =
        _mm_div_pd(one, _mm_mul_pd(_mm_mul_pd(ff, vfy), vfz));
    /* (s0, s0, s1, s1) against two interleaved complex pixels. */
    __m256d ss = _mm256_permute4x64_pd(_mm256_castpd128_pd256(s), 0x50);
    __m256d x = _mm256_loadu_pd(src + 2 * (soff + i));
    _mm256_storeu_pd(dst + 2 * (doff + i), _mm256_mul_pd(ss, x));
  }
  for (; i < len; i++) {
    double s = 1.0 / ((f[foff + i] * fy) * fz);
    __m128d ss = _mm_set1_pd(s);
    __m128d x = _mm_loadu_pd(src + 2 * (soff + i));
    _mm_storeu_pd(dst + 2 * (doff + i), _mm_mul_pd(ss, x));
  }
}
#endif

#ifdef JIGSAW_SIMD_NEON
static void deapod_neon(double *dst, long doff, const double *src, long soff,
                        const double *f, long foff, long len, double fy,
                        double fz)
{
  for (long i = 0; i < len; i++) {
    float64x2_t s = vdupq_n_f64(1.0 / ((f[foff + i] * fy) * fz));
    vst1q_f64(dst + 2 * (doff + i),
              vmulq_f64(s, vld1q_f64(src + 2 * (soff + i))));
  }
}
#endif

CAMLprim value jigsaw_simd_deapod_row(value dst, intnat doff, value src,
                                      intnat soff, value f, intnat foff,
                                      intnat len, double fy, double fz)
{
  double *d = (double *)Caml_ba_data_val(dst);
  const double *s = (const double *)Caml_ba_data_val(src);
  switch (jigsaw_simd_impl) {
#ifdef JIGSAW_SIMD_X86
  case IMPL_AVX2:
    deapod_avx2(d, doff, s, soff, FLOATS(f), foff, len, fy, fz);
    break;
#endif
#ifdef JIGSAW_SIMD_NEON
  case IMPL_NEON:
    deapod_neon(d, doff, s, soff, FLOATS(f), foff, len, fy, fz);
    break;
#endif
  default:
    deapod_scalar(d, doff, s, soff, FLOATS(f), foff, len, fy, fz);
    break;
  }
  return Val_unit;
}

CAMLprim value jigsaw_simd_deapod_row_bc(value *argv, int argn)
{
  (void)argn;
  return jigsaw_simd_deapod_row(argv[0], Long_val(argv[1]), argv[2],
                                Long_val(argv[3]), argv[4], Long_val(argv[5]),
                                Long_val(argv[6]), Double_val(argv[7]),
                                Double_val(argv[8]));
}
