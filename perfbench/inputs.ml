(* Workload inputs, generated from the seed alone.

   The seed fixes a trajectory rotation and the k-space values; the sizes
   are fixed per workload. The program under test only ever sees the
   generated coordinates, values and density weights. [Small] is the
   reduced-size variant the smoke tests run. *)

module Sample = Nufft.Sample
module Cvec = Numerics.Cvec
module Traj = Trajectory.Traj

type size = Full | Small

type sizes = {
  warm_n : int;
  warm_spokes : int;
  warm_readout : int;
  warm_value_sets : int;
  dyn_n : int;
  dyn_interleaves : int;
  dyn_samples : int;  (** per interleave *)
  dyn_turns : float;
  served_n : int;
  served_readout : int;
  served_tenants : int;
  served_value_sets : int;
  cg_n : int;
  cg_spokes : int;
  cg_readout : int;
  cg_partitions : int;
  cg_iters : int;
}

(* Full sizes: the paper's Image 3 (n=256, 402 x 512 radial) and Image 4
   geometry (n=320, g=640 spiral, 8 of its interleaves per frame), a
   fully sampled n=128 radial per tenant, and a 3D stack-of-stars. *)
let sizes = function
  | Full ->
      { warm_n = 256;
        warm_spokes = 402;
        warm_readout = 512;
        warm_value_sets = 4;
        dyn_n = 320;
        dyn_interleaves = 8;
        dyn_samples = 6250;
        dyn_turns = 40.0;
        served_n = 128;
        served_readout = 256;
        served_tenants = 4;
        served_value_sets = 2;
        cg_n = 32;
        cg_spokes = 40;
        cg_readout = 64;
        cg_partitions = 32;
        cg_iters = 6 }
  | Small ->
      { warm_n = 32;
        warm_spokes = 50;
        warm_readout = 64;
        warm_value_sets = 2;
        dyn_n = 40;
        dyn_interleaves = 4;
        dyn_samples = 300;
        dyn_turns = 5.0;
        served_n = 16;
        served_readout = 32;
        served_tenants = 2;
        served_value_sets = 2;
        cg_n = 8;
        cg_spokes = 8;
        cg_readout = 16;
        cg_partitions = 8;
        cg_iters = 3 }

let sigma = 2.0
let grid_of n = int_of_float (Float.round (sigma *. float_of_int n))
let golden = Float.pi *. (3.0 -. sqrt 5.0)

let rng seed salt = Random.State.make [| seed; salt |]

let random_values st m =
  let v = Cvec.create m in
  for j = 0 to m - 1 do
    Cvec.set_parts v j
      (Random.State.float st 2.0 -. 1.0)
      (Random.State.float st 2.0 -. 1.0)
  done;
  v

let rotate (t : Traj.t) theta =
  let c = cos theta and s = sin theta in
  let ox = t.Traj.omega_x and oy = t.Traj.omega_y in
  Traj.make
    ~omega_x:(Array.mapi (fun j x -> (x *. c) -. (oy.(j) *. s)) ox)
    ~omega_y:(Array.mapi (fun j x -> (x *. s) +. (oy.(j) *. c)) ox)

(* One reconstruction problem: the trajectory both as the radians a wire
   client sends and as grid-unit coordinates at g = round (sigma * n). *)
type problem = {
  n : int;
  omega : float array array;
  coords : Sample.t;
  density : float array option;
}

let problem ~n ~omega ~density =
  let m = Array.length omega.(0) in
  { n;
    omega;
    coords = Sample.of_omega ~g:(grid_of n) ~omega ~values:(Cvec.create m);
    density }

let length p = Sample.length p.coords
let dims p = Sample.dims p.coords

let of_traj ~n ?density (t : Traj.t) =
  problem ~n ~omega:[| t.Traj.omega_x; t.Traj.omega_y |] ~density

(* warm-2d: one uniform radial trajectory, seed-rotated within one spoke
   gap, ramp density, [warm_value_sets] value vectors cycled. *)
let warm sz ~seed =
  let st = rng seed 1 in
  let base =
    Trajectory.Radial.make ~spokes:sz.warm_spokes ~readout:sz.warm_readout ()
  in
  let t =
    rotate base
      (Random.State.float st (Float.pi /. float_of_int sz.warm_spokes))
  in
  let p =
    of_traj ~n:sz.warm_n ~density:(Trajectory.Radial.density_weights t) t
  in
  let values =
    Array.init sz.warm_value_sets (fun _ -> random_values st (length p))
  in
  (p, values)

(* dynamic-2d: frame [k] is the spiral interleave set rotated by a seeded
   offset plus k golden angles, so no two frames share a trajectory. *)
type dynamic = { base : Traj.t; offset : float; dyn_n : int; seed : int }

let dynamic sz ~seed =
  let base =
    Trajectory.Spiral.make ~interleaves:sz.dyn_interleaves
      ~samples_per_interleave:sz.dyn_samples ~turns:sz.dyn_turns ()
  in
  { base;
    offset = Random.State.float (rng seed 2) (2.0 *. Float.pi);
    dyn_n = sz.dyn_n;
    seed }

let frame d k =
  let t = rotate d.base (d.offset +. (float_of_int k *. golden)) in
  let p =
    of_traj ~n:d.dyn_n ~density:(Trajectory.Spiral.density_weights t) t
  in
  (p, random_values (rng d.seed (1000 + k)) (length p))

(* served-2d: per tenant, a fully sampled golden-angle radial trajectory
   with its own seeded rotation, no density weights. *)
let served sz ~seed =
  let st = rng seed 3 in
  let spokes = Trajectory.Radial.fully_sampled_spokes ~n:sz.served_n in
  Array.init sz.served_tenants (fun _ ->
      let base =
        Trajectory.Radial.make ~scheme:Trajectory.Radial.Golden_angle ~spokes
          ~readout:sz.served_readout ()
      in
      let p =
        of_traj ~n:sz.served_n
          (rotate base (Random.State.float st (2.0 *. Float.pi)))
      in
      let values =
        Array.init sz.served_value_sets (fun _ -> random_values st (length p))
      in
      (p, values))

(* cg-3d: stack of stars — the same golden-angle spokes on every kz
   partition, kz on the Cartesian lattice, in-plane ramp density. *)
let cg sz ~seed =
  let st = rng seed 4 in
  let plane =
    rotate
      (Trajectory.Radial.make ~scheme:Trajectory.Radial.Golden_angle
         ~spokes:sz.cg_spokes ~readout:sz.cg_readout ())
      (Random.State.float st (2.0 *. Float.pi))
  in
  let m2 = Traj.length plane and parts = sz.cg_partitions in
  let w2 = Trajectory.Radial.density_weights plane in
  let m = m2 * parts in
  let ox = Array.make m 0.0 and oy = Array.make m 0.0 and oz = Array.make m 0.0 in
  let density = Array.make m 0.0 in
  for p = 0 to parts - 1 do
    let kz =
      -.Float.pi +. (2.0 *. Float.pi *. float_of_int p /. float_of_int parts)
    in
    for j = 0 to m2 - 1 do
      let i = (p * m2) + j in
      ox.(i) <- plane.Traj.omega_x.(j);
      oy.(i) <- plane.Traj.omega_y.(j);
      oz.(i) <- kz;
      density.(i) <- w2.(j)
    done
  done;
  let p = problem ~n:sz.cg_n ~omega:[| ox; oy; oz |] ~density:(Some density) in
  (p, random_values st m)

(* ------------------------------------------------------------------ *)
(* Requests *)

module Svc = Pipeline.Recon_service
module P = Serving.Protocol

let request ?(method_ = Svc.Adjoint) (p : problem) values =
  { Svc.backend = "auto";
    transform = Nufft.Transform.Type1;
    n = p.n;
    coords = Sample.with_values p.coords values;
    values;
    density = p.density;
    method_;
    tol = None;
    family = None }

let interleaved (v : Cvec.t) =
  let m = Cvec.length v in
  let a = Array.make (2 * m) 0.0 in
  for j = 0 to m - 1 do
    a.(2 * j) <- Cvec.get_re v j;
    a.((2 * j) + 1) <- Cvec.get_im v j
  done;
  a

let wire_request ?(method_ = P.Adjoint) ~tenant (p : problem) values =
  { P.tenant;
    backend = "auto";
    n = p.n;
    dims = dims p;
    method_;
    tol = None;
    family = None;
    transform = Nufft.Transform.Type1;
    omega = p.omega;
    values = interleaved values;
    density = p.density }
