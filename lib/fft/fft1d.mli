(** 1D complex fast Fourier transform for 5-smooth lengths.

    Supported lengths are n = 2^a * 3^b * 5^c; any other length raises
    [Invalid_argument] before the buffer is touched. Every line runs one
    in-place algorithm from a plan cached per length and direction:
    permute the line (mixed-radix digit reversal), run its 2^a-point
    sub-lines through radix-2 butterflies, then combine them with radix-3
    and radix-5 passes. A 640-point line is one radix-5 pass over five
    128-point sub-lines; a power of two is one sub-line and no passes.

    [Plan.make] sizes its oversampled grids to 5-smooth lengths
    ({!next_smooth}), as FINUFFT does, so every planned transform is
    supported.

    Transforms are unnormalised (like FFTW): [transform Inverse
    (transform Forward v)] equals [n * v]. *)

val is_smooth : int -> bool
(** [n >= 1] has no prime factor above 5 (n = 2^a * 3^b * 5^c). *)

val next_smooth : int -> int
(** Smallest 5-smooth integer >= the argument (argument must be >= 1). *)

val transform : Dft.direction -> Numerics.Cvec.t -> unit
(** In-place FFT of the whole vector. The length must be 5-smooth, else
    [Invalid_argument]. Dispatches through {!Simd.fft_mixed_batch} when
    SIMD is active, bit-identical to the OCaml passes. *)

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
