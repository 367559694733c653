module Cvec = Numerics.Cvec
module C = Numerics.Complexd
module Sample = Nufft.Sample
module Op = Nufft.Operator

type t = {
  n : int;
  dims : int;
  q_hat : Cvec.t;  (* FFT of the wrapped Toeplitz kernel, l = embedding n *)
  pool : Runtime.Pool.t option;  (* reused by every apply *)
}

(* Length of the circulant embedding: any length >= 2n - 1 embeds the
   linear convolution of an n-point image with the kernel on [-n, n);
   the smallest 5-smooth length >= 2n keeps every FFT on supported
   lengths and equals 2n whenever 2n is itself 5-smooth. *)
let embedding n = Fft.Fft1d.next_smooth (2 * n)

(* Wrap centred displacements d in [-n, n) (array index d + n of the
   2n-point kernel grid) onto the circulant grid: k[(d mod l, ...)] =
   q(d, ...), then take its spectrum. *)
let wrap_spectrum ?pool ~dims ~n q =
  let n2 = 2 * n and l = embedding n in
  let wrap = Nufft.Coord.wrap ~g:l in
  match dims with
  | 2 ->
      let k = Cvec.create (l * l) in
      for iy = 0 to n2 - 1 do
        for ix = 0 to n2 - 1 do
          let wx = wrap (ix - n) and wy = wrap (iy - n) in
          Cvec.set k ((wy * l) + wx) (Cvec.get q ((iy * n2) + ix))
        done
      done;
      Fft.Fftnd.transform_2d ?pool Fft.Dft.Forward ~nx:l ~ny:l k;
      k
  | 3 ->
      let k = Cvec.create (l * l * l) in
      for iz = 0 to n2 - 1 do
        for iy = 0 to n2 - 1 do
          for ix = 0 to n2 - 1 do
            let wx = wrap (ix - n)
            and wy = wrap (iy - n)
            and wz = wrap (iz - n) in
            Cvec.set k
              ((((wz * l) + wy) * l) + wx)
              (Cvec.get q ((((iz * n2) + iy) * n2) + ix))
          done
        done
      done;
      Fft.Fftnd.transform_3d ?pool Fft.Dft.Forward ~nx:l ~ny:l ~nz:l k;
      k
  | d -> invalid_arg (Printf.sprintf "Toeplitz: unsupported dimensionality %d" d)

let check_weights ~m = function
  | None -> Array.make m 1.0
  | Some w ->
      if Array.length w <> m then
        invalid_arg "Toeplitz.make: weights length mismatch";
      w

(* q(d) = sum_j w_j e^{i omega_j . d}, d in [-n, n)^dims: one adjoint
   NuFFT of the weights on the doubled grid, through any backend.
   [create] lets a serving layer interpose its own operator construction
   (e.g. a plan cache) for the setup adjoint. *)
let make_op ?weights ?(backend = "serial") ?pool ?(create = Op.create) ~n
    ~coords () =
  let dims = Sample.dims coords in
  let m = Sample.length coords in
  let w = check_weights ~m weights in
  let n2 = 2 * n in
  let g2 = Nufft.Plan.grid_size ~sigma:2.0 ~n:n2 in
  (* Same trajectory, re-expressed on the plan grid of the doubled
     image (sigma = 2). *)
  let coords2 = Sample.rescale ~g:g2 coords in
  let values = Cvec.init m (fun j -> C.of_float w.(j)) in
  let op = create backend (Op.context ?pool ~n:n2 ~coords:coords2 ()) in
  let q = Op.apply_adjoint op (Sample.with_values coords2 values) in
  { n; dims; q_hat = wrap_spectrum ?pool ~dims ~n q; pool }

let make ?weights ?pool ~n ~omega_x ~omega_y () =
  let m = Array.length omega_x in
  if Array.length omega_y <> m then
    invalid_arg "Toeplitz.make: omega length mismatch";
  let coords =
    Sample.of_omega_2d ~g:(4 * n) ~omega_x ~omega_y ~values:(Cvec.create m)
  in
  make_op ?weights ?pool ~n ~coords ()

let n t = t.n
let dims t = t.dims
let kernel_spectrum t = t.q_hat

let apply t x =
  let n = t.n in
  let l = embedding n in
  let wrap = Nufft.Coord.wrap ~g:l in
  match t.dims with
  | 2 ->
      if Cvec.length x <> n * n then
        invalid_arg "Toeplitz.apply: size mismatch";
      (* Zero-pad: image position p in [-n/2, n/2) lives at circulant index
         p mod l. *)
      let pad = Cvec.create (l * l) in
      for iy = 0 to n - 1 do
        for ix = 0 to n - 1 do
          let px = wrap (ix - (n / 2)) and py = wrap (iy - (n / 2)) in
          Cvec.set pad ((py * l) + px) (Cvec.get x ((iy * n) + ix))
        done
      done;
      Fft.Fftnd.transform_2d ?pool:t.pool Fft.Dft.Forward ~nx:l ~ny:l pad;
      for k = 0 to (l * l) - 1 do
        Cvec.set pad k (C.mul (Cvec.get pad k) (Cvec.get t.q_hat k))
      done;
      Fft.Fftnd.transform_2d ?pool:t.pool Fft.Dft.Inverse ~nx:l ~ny:l pad;
      Cvec.scale_inplace (1.0 /. float_of_int (l * l)) pad;
      Cvec.init (n * n) (fun idx ->
          let ix = idx mod n and iy = idx / n in
          let px = wrap (ix - (n / 2)) and py = wrap (iy - (n / 2)) in
          Cvec.get pad ((py * l) + px))
  | 3 ->
      if Cvec.length x <> n * n * n then
        invalid_arg "Toeplitz.apply: size mismatch";
      let pad = Cvec.create (l * l * l) in
      for iz = 0 to n - 1 do
        for iy = 0 to n - 1 do
          for ix = 0 to n - 1 do
            let px = wrap (ix - (n / 2))
            and py = wrap (iy - (n / 2))
            and pz = wrap (iz - (n / 2)) in
            Cvec.set pad
              ((((pz * l) + py) * l) + px)
              (Cvec.get x ((((iz * n) + iy) * n) + ix))
          done
        done
      done;
      Fft.Fftnd.transform_3d ?pool:t.pool Fft.Dft.Forward ~nx:l ~ny:l ~nz:l
        pad;
      for k = 0 to (l * l * l) - 1 do
        Cvec.set pad k (C.mul (Cvec.get pad k) (Cvec.get t.q_hat k))
      done;
      Fft.Fftnd.transform_3d ?pool:t.pool Fft.Dft.Inverse ~nx:l ~ny:l ~nz:l
        pad;
      Cvec.scale_inplace (1.0 /. float_of_int (l * l * l)) pad;
      Cvec.init (n * n * n) (fun idx ->
          let ix = idx mod n in
          let iy = idx / n mod n in
          let iz = idx / (n * n) in
          let px = wrap (ix - (n / 2))
          and py = wrap (iy - (n / 2))
          and pz = wrap (iz - (n / 2)) in
          Cvec.get pad ((((pz * l) + py) * l) + px))
  | _ -> assert false
