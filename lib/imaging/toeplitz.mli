(** Toeplitz embedding of the NuFFT normal operator.

    Iterative MRI reconstruction repeatedly applies the Gram (normal)
    operator [T = A^H W A] of the forward NuFFT [A] with sample weights
    [W]. Because the samples are fixed, [T] is block-Toeplitz and can be
    applied with two [L]-point FFTs and a precomputed spectrum — no
    gridding at all after setup. [L] is the smallest 5-smooth length
    [>= 2N] (so [L = 2N] whenever [2N] is 5-smooth), the circulant
    embedding length. This is the "Toeplitz-based strategy" of
    the Impatient framework the paper compares against (Gai et al. 2013);
    building it here both reproduces that baseline's structure and gives
    the iterative solver a fast inner loop.

    Construction: the generating kernel [q(d) = sum_j w_j e^{i omega_j . d}]
    for displacements [d in [-N, N)^dims] is computed with one adjoint
    NuFFT of a [2N]-point image; [T x] is then the central [N^dims] crop
    of the length-[L] circular convolution of the zero-padded image with
    [q]. The setup
    adjoint runs through {!Nufft.Operator}, so it works in 2D or 3D and
    through any registered backend. *)

type t

val make_op :
  ?weights:float array ->
  ?backend:string ->
  ?pool:Runtime.Pool.t ->
  ?create:(string -> Nufft.Operator.ctx -> Nufft.Operator.op) ->
  n:int ->
  coords:Nufft.Sample.t ->
  unit ->
  t
(** Precompute the operator for an [n^dims] image from a bound coordinate
    set (2D or 3D, on any grid size — the trajectory is rescaled onto
    [Plan.grid_size ~sigma:2.0 ~n:(2n)], the plan grid of the internal
    doubled image). [backend] names the registered operator used for the
    setup adjoint (default ["serial"]); [create] overrides how that
    operator is built (default {!Nufft.Operator.create}) so a serving
    layer can route the setup through its plan cache. *)

val make :
  ?weights:float array ->
  ?pool:Runtime.Pool.t ->
  n:int ->
  omega_x:float array ->
  omega_y:float array ->
  unit ->
  t
(** Precompute the operator for an [n x n] image sampled at the given
    k-space frequencies with optional density weights (default 1). Uses a
    dedicated internal [2n] NuFFT plan. With [pool], setup and every
    subsequent {!apply} batch their FFT lines over that domain pool — the
    CG inner loop is two [L x L] FFTs per iteration, so this is where a
    reusable pool pays off most. *)

val apply : t -> Numerics.Cvec.t -> Numerics.Cvec.t
(** [apply t x] is [A^H W A x] for an [n^dims] image [x] — two [L]-grid
    FFTs (on the pool given at construction, if any). *)

val n : t -> int
val dims : t -> int

val kernel_spectrum : t -> Numerics.Cvec.t
(** The precomputed [L^dims] spectrum (mostly for tests: for [W >= 0]
    the operator is PSD, so the spectrum of the underlying circulant is
    ~real). *)
