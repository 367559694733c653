(** 1D complex fast Fourier transform.

    Supported lengths:
    - powers of two run an iterative radix-2 decimation-in-time transform
      with cached twiddle factors and bit-reversal tables;
    - every other 5-smooth length n = 2^a * 3^b * 5^c permutes the line in
      place (mixed-radix digit reversal), runs its 2^a-point sub-lines
      through the same radix-2 kernel, then combines them with radix-3 and
      radix-5 passes — a 640-point line is one radix-5 pass over five
      128-point sub-lines;
    - any other length falls back to Bluestein's chirp-z algorithm (two
      power-of-two FFTs per call, chirp and filter spectrum cached per
      length and direction).

    [Plan.make] sizes its oversampled grids to 5-smooth lengths
    ({!next_smooth}), so planned transforms never reach Bluestein; only
    direct callers at other lengths do.

    Transforms are unnormalised (like FFTW): [transform Inverse
    (transform Forward v)] equals [n * v]. *)

val is_pow2 : int -> bool
val next_pow2 : int -> int
(** Smallest power of two >= the argument (argument must be >= 1). *)

val is_smooth : int -> bool
(** [n >= 1] has no prime factor above 5 (n = 2^a * 3^b * 5^c). *)

val next_smooth : int -> int
(** Smallest 5-smooth integer >= the argument (argument must be >= 1). *)

val transform : Dft.direction -> Numerics.Cvec.t -> unit
(** In-place FFT of the whole vector. Any length >= 1. Power-of-two and
    other 5-smooth lengths dispatch through the {!Simd} kernels
    ({!Simd.fft_batch}, {!Simd.fft_mixed_batch}) when SIMD is active,
    bit-identical to the OCaml passes. *)

val transform_batch :
  Dft.direction -> Numerics.Cvec.t -> off:int -> count:int -> len:int -> unit
(** [transform_batch dir v ~off ~count ~len] — in-place FFT of [count]
    contiguous complex lines of length [len] (5-smooth) starting at
    complex offset [off]: line [k] occupies [[off + k*len, off +
    (k+1)*len)). This is the batched entry point {!Fftnd} uses for its
    contiguous row passes and gathered blocks; with SIMD active the whole
    batch is one C call. Raises [Invalid_argument] on a [len] with a
    prime factor above 5 or an out-of-bounds range. *)

val transformed : Dft.direction -> Numerics.Cvec.t -> Numerics.Cvec.t
(** Copying variant of {!transform}. *)

val inverse_normalized : Numerics.Cvec.t -> Numerics.Cvec.t
(** Inverse transform scaled by [1/n]: a true inverse of
    [transform Forward]. *)

val flop_estimate : int -> float
(** [5 n log2 n] — the standard complex-FFT flop count, used by the
    end-to-end performance models to estimate what a cuFFT/FFTW-class
    library would take on the evaluation hardware. *)
