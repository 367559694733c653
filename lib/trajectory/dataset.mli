(** The five evaluation datasets ("Image 1" .. "Image 5") used by the
    paper's Figures 6-8.

    The paper evaluates five 2D images of differing dimension and sample
    count. The grid dimensions recovered from the paper are
    [N in {64, 64, 256, 320, 512}]; the exact per-image sample counts are
    illegible in our source text, so each dataset generates its samples from
    a realistic MRI trajectory (radial or spiral) of comparable scale —
    documented per dataset. The [sigma = 2] oversampled grid sizes are
    {128, 128, 512, 640, 1024}; note 640 = 5 * 128 exercises the
    non-power-of-two (mixed-radix) FFT path. *)

type t = {
  name : string;  (** "Image 1" .. "Image 5" *)
  n : int;  (** base grid dimension per side *)
  m : int;  (** number of non-uniform samples *)
  description : string;  (** trajectory recipe *)
  trajectory : unit -> Traj.t;  (** generates exactly [m] samples *)
}

val all : t list
(** The five datasets, smallest first. *)

val by_name : string -> t
(** Raises [Not_found] for an unknown name. *)

val small_variant : t -> t
(** A reduced-M copy (same [n], ~1/16 of the samples) for quick tests and
    CI-friendly benchmark smoke runs. *)
