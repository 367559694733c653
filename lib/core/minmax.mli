(** Min-max optimal interpolation (Fessler & Sutton 2003) — the
    interpolator behind MIRT, the paper's CPU baseline.

    Instead of evaluating a fixed window function, the min-max approach
    solves, per sample, for the [w] complex coefficients that best
    reproduce the ideal exponential [e^{2 pi i u x / g}] over the image
    support [x in [-n/2, n/2)] from the exponentials of the window's
    uniform grid points — the least-squares / min-max optimal gridding
    coefficients [c = T^{-1} r] with

    [T_jl = sum_x e^{2 pi i (k_l - k_j) x / g}],
    [r_j  = sum_x e^{2 pi i (u - k_j) x / g}]

    (closed-form Dirichlet sums). 2D uses the separable product of 1D
    coefficient vectors, as MIRT does. Because the coefficients target the
    ideal exponential directly, the adjoint pipeline needs {e no}
    de-apodization step.

    Scaling factors [s(x)] matter enormously (F&S Sec. IV): with uniform
    scaling ([s = 1], the default) min-max is mediocre; with a good smooth
    scaling — we provide the Kaiser-Bessel spectrum, which is also what the
    de-apodization step divides by — it reaches or beats the tabulated
    Kaiser-Bessel interpolator. The fit then approximates
    [s(x) e^{2 pi i u x/g}] by [sum_j c_j s(x) e^{2 pi i k_j x / g}] and
    the adjoint divides the cropped image by [s].

    This is the "exact" (solve-per-sample) variant — slower than table
    lookup but the accuracy reference among [w]-point interpolators; MIRT
    amortises it with precomputed tables. *)

type scaling =
  | Uniform  (** s(x) = 1: closed-form Dirichlet systems *)
  | Kaiser_bessel_scaling
      (** s(x) = psi_hat_KB(x/g) with the Beatty beta for (w, g/n) *)

val coefficients :
  ?scaling:scaling -> n:int -> g:int -> w:int -> float -> Numerics.Complexd.t array
(** [coefficients ~n ~g ~w u] — the [w] coefficients for the canonical
    window points of coordinate [u] (same enumeration as
    {!Coord.iter_window}). Default scaling: [Uniform]. *)

val grid_2d :
  ?scaling:scaling ->
  n:int ->
  g:int ->
  w:int ->
  gx:float array ->
  gy:float array ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** Spread with per-sample min-max coefficients onto a [g x g] grid. *)

val adjoint_2d :
  ?scaling:scaling ->
  n:int ->
  g:int ->
  w:int ->
  gx:float array ->
  gy:float array ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** Full adjoint NuFFT with min-max interpolation: spread, inverse-FFT,
    crop, divide by the scaling factors (a no-op for [Uniform]). Returns
    the [n x n] centred image. [g] must be 5-smooth (as
    {!Plan.grid_size} is), else the FFT raises [Invalid_argument]. *)

val worst_case_error :
  ?scaling:scaling -> n:int -> g:int -> w:int -> float -> float
(** The residual max-error of the coefficient fit for a sample at [u]:
    [max_x |e^{2 pi i u x/g} - sum_j c_j e^{2 pi i k_j x/g}|] — the
    quantity min-max interpolation minimises; decreases with [w] and with
    the oversampling margin [g/n]. *)
