(** Multi-dimensional FFT by the row-column method.

    Arrays are row-major: a 2D array of [ny] rows and [nx] columns stores
    element [(x, y)] at linear index [y*nx + x]; a 3D array of [nz] slices
    stores [(x, y, z)] at [(z*ny + y)*nx + x]. Every per-dimension length
    must be 5-smooth (see {!Fft1d}), else [Invalid_argument] before the
    buffer is touched. Transforms are unnormalised. *)

val scratch_length : len:int -> int
(** Length of the caller-owned [?scratch] buffer that lets every serial
    pass over [len]-point lines run without allocating: strided passes
    gather a block of neighbouring lines side by side into it. *)

val transform_2d :
  ?pool:Runtime.Pool.t ->
  ?scratch:Numerics.Cvec.t ->
  Dft.direction -> nx:int -> ny:int -> Numerics.Cvec.t -> unit
(** In-place 2D FFT: 1D transforms along every row, then every column.
    With [pool], the independent lines of each pass are batched over the
    pool's domains (they write disjoint index sets, so the pass is
    race-free); the result is bit-identical to the serial transform.
    With [scratch], serial passes gather lines into that caller-owned
    buffer instead of allocating one — the pooled-workspace hook. It must
    hold [scratch_length ~len] elements (strided passes gather blocks of
    neighbouring lines); a shorter buffer, or a pooled pass, uses a block
    buffer from a small shared free list. Contiguous row passes need no
    scratch: they transform in place through {!Fft1d.transform_batch}. *)

val transform_3d :
  ?pool:Runtime.Pool.t ->
  ?scratch:Numerics.Cvec.t ->
  Dft.direction -> nx:int -> ny:int -> nz:int -> Numerics.Cvec.t -> unit

val transform_cropped :
  ?pool:Runtime.Pool.t ->
  ?scratch:Numerics.Cvec.t ->
  Dft.direction -> dims:int -> g:int -> n:int -> Numerics.Cvec.t -> unit
(** [transform_cropped dir ~dims ~g ~n v] — the [g^dims] transform of
    {!transform_2d}/{!transform_3d}, restricted to the lines whose outputs
    the centred [n]-point crop reads: on each axis the grid indices
    [wrap (i - n/2)], [i < n], i.e. [[0, n - n/2)] and [[g - n/2, g)] (the
    crop that [Plan.crop_deapodize_*] reads). Every first-axis line is
    transformed, then only lines through cropped indices: [g + n] lines
    in 2D instead of [2g], [g^2 + g n + n^2] in 3D instead of [3 g^2].
    Values on every cropped index are bit-identical to the full
    transform; the rest of [v] is left partially transformed. [dims] is
    2 or 3, [1 <= n <= g], [g] 5-smooth. *)

val transform_padded :
  ?pool:Runtime.Pool.t ->
  ?scratch:Numerics.Cvec.t ->
  Dft.direction -> dims:int -> g:int -> n:int -> Numerics.Cvec.t -> unit
(** Mirror of {!transform_cropped} for the forward side: [v] must be zero
    outside the centred [n]-point pad on every axis. Lines that are still
    all zero when their pass starts are skipped ([n + g] lines in 2D,
    [n^2 + g n + g^2] in 3D); an all-zero line transforms to [+0.0]
    everywhere, so the whole of [v] is bit-identical to the full
    transform. *)

val transformed_2d :
  ?pool:Runtime.Pool.t ->
  Dft.direction -> nx:int -> ny:int -> Numerics.Cvec.t -> Numerics.Cvec.t

val fftshift_2d : nx:int -> ny:int -> Numerics.Cvec.t -> Numerics.Cvec.t
(** Swap quadrants so that index 0 moves to the centre [(nx/2, ny/2)] —
    the usual display/centred-spectrum reordering. Self-inverse for even
    dimensions. *)

val flop_estimate_2d : nx:int -> ny:int -> float
(** Row-column flop count, [5 nx ny log2 (nx ny)]. *)
