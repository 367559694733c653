(* Tests for the FFT substrate: 5-smooth lines (radix 2/3/5), the
   length contract (any other length raises before touching the buffer),
   2D/3D and the pruned crop/pad transforms, against the naive DFT oracle
   and against the full transforms bit for bit. *)

module C = Numerics.Complexd
module Cvec = Numerics.Cvec

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let check_vec ?(eps = 1e-9) msg expected actual =
  if Cvec.length expected <> Cvec.length actual then
    Alcotest.failf "%s: length %d vs %d" msg (Cvec.length expected)
      (Cvec.length actual);
  let d = Cvec.max_abs_diff expected actual in
  if d > eps then Alcotest.failf "%s: max diff %g > %g" msg d eps

let rand_vec rng n =
  Cvec.init n (fun _ ->
      C.make (Random.State.float rng 2.0 -. 1.0) (Random.State.float rng 2.0 -. 1.0))

let test_fft_impulse () =
  (* FFT of a delta is all ones. *)
  let v = Cvec.create 8 in
  Cvec.set v 0 C.one;
  let f = Fft.Fft1d.transformed Fft.Dft.Forward v in
  for k = 0 to 7 do
    check_close ~eps:1e-12 "re" 1.0 (Cvec.get_re f k);
    check_close ~eps:1e-12 "im" 0.0 (Cvec.get_im f k)
  done

let test_fft_single_tone () =
  (* x_j = e^{2 pi i 3 j / 16} has forward FFT = 16 * delta_{k=3}?  With the
     e^{-} forward convention the energy lands on bin 3. *)
  let n = 16 in
  let v = Cvec.init n (fun j ->
      C.exp_i (2.0 *. Float.pi *. 3.0 *. float_of_int j /. float_of_int n)) in
  let f = Fft.Fft1d.transformed Fft.Dft.Forward v in
  for k = 0 to n - 1 do
    let expected = if k = 3 then float_of_int n else 0.0 in
    check_close ~eps:1e-10 (Printf.sprintf "bin %d" k) expected (C.norm (Cvec.get f k))
  done

let test_fft_matches_dft_pow2 () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun n ->
      let v = rand_vec rng n in
      let fft = Fft.Fft1d.transformed Fft.Dft.Forward v in
      let dft = Fft.Dft.transform Fft.Dft.Forward v in
      check_vec ~eps:1e-8 (Printf.sprintf "n=%d fwd" n) dft fft;
      let ifft = Fft.Fft1d.transformed Fft.Dft.Inverse v in
      let idft = Fft.Dft.transform Fft.Dft.Inverse v in
      check_vec ~eps:1e-8 (Printf.sprintf "n=%d inv" n) idft ifft)
    [ 1; 2; 4; 8; 32; 128; 512 ]

let test_fft_matches_dft_mixed_radix () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun n ->
      let v = rand_vec rng n in
      let fft = Fft.Fft1d.transformed Fft.Dft.Forward v in
      let dft = Fft.Dft.transform Fft.Dft.Forward v in
      check_vec ~eps:1e-7 (Printf.sprintf "n=%d mixed radix" n) dft fft)
    [ 3; 5; 6; 12; 15; 48; 96; 100; 384 ]

let test_fft_roundtrip () =
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun n ->
      let v = rand_vec rng n in
      let f = Fft.Fft1d.transformed Fft.Dft.Forward v in
      let back = Fft.Fft1d.inverse_normalized f in
      check_vec ~eps:1e-9 (Printf.sprintf "n=%d roundtrip" n) v back)
    [ 8; 12; 64; 192 ]

let test_fft_linearity () =
  let rng = Random.State.make [| 3 |] in
  let n = 64 in
  let a = rand_vec rng n and b = rand_vec rng n in
  let sum = Cvec.copy a in
  Cvec.add_inplace sum b;
  let f_sum = Fft.Fft1d.transformed Fft.Dft.Forward sum in
  let fa = Fft.Fft1d.transformed Fft.Dft.Forward a in
  let fb = Fft.Fft1d.transformed Fft.Dft.Forward b in
  Cvec.add_inplace fa fb;
  check_vec ~eps:1e-9 "F(a+b) = F(a)+F(b)" fa f_sum

let test_parseval () =
  let rng = Random.State.make [| 19 |] in
  let n = 256 in
  let v = rand_vec rng n in
  let f = Fft.Fft1d.transformed Fft.Dft.Forward v in
  check_close ~eps:1e-6 "parseval"
    (float_of_int n *. Cvec.norm2 v)
    (Cvec.norm2 f)

let test_fft2d_matches_dft () =
  let rng = Random.State.make [| 23 |] in
  List.iter
    (fun (nx, ny) ->
      let v = rand_vec rng (nx * ny) in
      let fft = Fft.Fftnd.transformed_2d Fft.Dft.Forward ~nx ~ny v in
      let dft = Fft.Dft.transform_2d Fft.Dft.Forward ~nx ~ny v in
      check_vec ~eps:1e-7 (Printf.sprintf "%dx%d" nx ny) dft fft)
    [ (4, 4); (8, 4); (4, 8); (16, 16); (6, 10) ]

let test_fft2d_roundtrip () =
  let rng = Random.State.make [| 29 |] in
  let nx = 32 and ny = 16 in
  let v = rand_vec rng (nx * ny) in
  let f = Fft.Fftnd.transformed_2d Fft.Dft.Forward ~nx ~ny v in
  Fft.Fftnd.transform_2d Fft.Dft.Inverse ~nx ~ny f;
  Cvec.scale_inplace (1.0 /. float_of_int (nx * ny)) f;
  check_vec ~eps:1e-9 "2d roundtrip" v f

let test_fft3d_roundtrip () =
  let rng = Random.State.make [| 31 |] in
  let nx = 8 and ny = 4 and nz = 6 in
  let v = rand_vec rng (nx * ny * nz) in
  let f = Cvec.copy v in
  Fft.Fftnd.transform_3d Fft.Dft.Forward ~nx ~ny ~nz f;
  Fft.Fftnd.transform_3d Fft.Dft.Inverse ~nx ~ny ~nz f;
  Cvec.scale_inplace (1.0 /. float_of_int (nx * ny * nz)) f;
  check_vec ~eps:1e-9 "3d roundtrip" v f

let test_fft3d_separable () =
  (* A rank-1 (separable) input transforms to the product of 1D FFTs. *)
  let nx = 4 and ny = 8 and nz = 2 in
  let rng = Random.State.make [| 37 |] in
  let fx = rand_vec rng nx and fy = rand_vec rng ny and fz = rand_vec rng nz in
  let v = Cvec.create (nx * ny * nz) in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        let p = C.mul (Cvec.get fx x) (C.mul (Cvec.get fy y) (Cvec.get fz z)) in
        Cvec.set v (((z * ny) + y) * nx + x) p
      done
    done
  done;
  Fft.Fftnd.transform_3d Fft.Dft.Forward ~nx ~ny ~nz v;
  let gx = Fft.Fft1d.transformed Fft.Dft.Forward fx in
  let gy = Fft.Fft1d.transformed Fft.Dft.Forward fy in
  let gz = Fft.Fft1d.transformed Fft.Dft.Forward fz in
  for z = 0 to nz - 1 do
    for y = 0 to ny - 1 do
      for x = 0 to nx - 1 do
        let expected =
          C.mul (Cvec.get gx x) (C.mul (Cvec.get gy y) (Cvec.get gz z))
        in
        let got = Cvec.get v (((z * ny) + y) * nx + x) in
        check_close ~eps:1e-8 "sep re" expected.re got.re;
        check_close ~eps:1e-8 "sep im" expected.im got.im
      done
    done
  done

let test_cache_interleaving () =
  (* Exercise the twiddle/bitrev caches across interleaved sizes. *)
  let rng = Random.State.make [| 13 |] in
  let check n =
    let v = rand_vec rng n in
    let fft = Fft.Fft1d.transformed Fft.Dft.Forward v in
    let dft = Fft.Dft.transform Fft.Dft.Forward v in
    check_vec ~eps:1e-8 (Printf.sprintf "interleaved n=%d" n) dft fft
  in
  List.iter check [ 8; 64; 8; 16; 64; 8 ]

let test_fftshift () =
  let nx = 4 and ny = 4 in
  let v = Cvec.init (nx * ny) (fun k -> C.of_float (float_of_int k)) in
  let s = Fft.Fftnd.fftshift_2d ~nx ~ny v in
  (* (0,0) moves to (2,2) = index 10. *)
  check_close ~eps:0.0 "origin to centre" 0.0 (Cvec.get_re s 10);
  let ss = Fft.Fftnd.fftshift_2d ~nx ~ny s in
  check_vec ~eps:0.0 "self inverse (even dims)" v ss

(* --- pruned transforms ------------------------------------------------ *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The centred crop's indices on one axis: wrap(i - n/2), i < n. *)
let crop_axis ~g ~n = List.init n (fun i -> (i - (n / 2) + g) mod g)

let check_bitwise msg ~full ~pruned idx =
  List.iter
    (fun k ->
      if
        not
          (bits_equal (Cvec.get_re full k) (Cvec.get_re pruned k)
          && bits_equal (Cvec.get_im full k) (Cvec.get_im pruned k))
      then Alcotest.failf "%s: index %d differs" msg k)
    idx

let crop_indices ~dims ~g ~n =
  let ax = crop_axis ~g ~n in
  if dims = 2 then
    List.concat_map (fun y -> List.map (fun x -> (y * g) + x) ax) ax
  else
    List.concat_map
      (fun z ->
        List.concat_map (fun y -> List.map (fun x -> (((z * g) + y) * g) + x) ax) ax)
      ax

let full_transform ?pool dir ~dims ~g v =
  if dims = 2 then Fft.Fftnd.transform_2d ?pool dir ~nx:g ~ny:g v
  else Fft.Fftnd.transform_3d ?pool dir ~nx:g ~ny:g ~nz:g v

(* Crop: every index the crop reads equals the full transform's bits.
   Pad: on a grid that is zero outside the centred pad, every index of
   the whole grid equals the full transform's bits. Serial and on a
   2-domain pool. *)
let test_pruned_matches_full () =
  let pool = Runtime.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (dims, g, n) ->
      let len = if dims = 2 then g * g else g * g * g in
      let rng = Random.State.make [| g; n; dims |] in
      let idx = crop_indices ~dims ~g ~n in
      List.iter
        (fun pool ->
          let tag what =
            Printf.sprintf "%s %dD g=%d n=%d%s" what dims g n
              (if pool = None then "" else " pooled")
          in
          let v = rand_vec rng len in
          let full = Cvec.copy v and pruned = Cvec.copy v in
          full_transform ?pool Fft.Dft.Inverse ~dims ~g full;
          Fft.Fftnd.transform_cropped ?pool Fft.Dft.Inverse ~dims ~g ~n pruned;
          check_bitwise (tag "crop") ~full ~pruned idx;
          let padded = Cvec.create len in
          List.iter (fun k -> Cvec.set padded k (Cvec.get v k)) idx;
          let full = Cvec.copy padded and pruned = Cvec.copy padded in
          full_transform ?pool Fft.Dft.Forward ~dims ~g full;
          Fft.Fftnd.transform_padded ?pool Fft.Dft.Forward ~dims ~g ~n pruned;
          check_bitwise (tag "pad") ~full ~pruned (List.init len Fun.id))
        [ None; Some pool ])
    [ (2, 24, 12); (2, 24, 7); (2, 512, 256); (2, 640, 320); (3, 40, 20);
      (3, 40, 9); (3, 64, 32) ]

(* The line count is named beforehand: g + n lines per pruned 2D
   adjoint, g^2 + g n + n^2 per pruned 3D adjoint (and the mirrored
   counts for the forward). *)
let test_pruned_line_counts () =
  let c = Telemetry.Counter.make "fft.lines" in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  List.iter
    (fun (dims, g, n, expected) ->
      let v = Cvec.create (if dims = 2 then g * g else g * g * g) in
      let before = Telemetry.Counter.value c in
      Fft.Fftnd.transform_cropped Fft.Dft.Inverse ~dims ~g ~n v;
      Alcotest.(check int)
        (Printf.sprintf "cropped %dD g=%d n=%d lines" dims g n)
        expected
        (Telemetry.Counter.value c - before);
      let before = Telemetry.Counter.value c in
      Fft.Fftnd.transform_padded Fft.Dft.Forward ~dims ~g ~n v;
      Alcotest.(check int)
        (Printf.sprintf "padded %dD g=%d n=%d lines" dims g n)
        expected
        (Telemetry.Counter.value c - before))
    [ (2, 640, 320, 640 + 320); (2, 512, 256, 512 + 256);
      (3, 64, 32, (64 * 64) + (64 * 32) + (32 * 32));
      (3, 40, 20, (40 * 40) + (40 * 20) + (20 * 20)) ];
  (* and through a whole NUFFT adjoint, which must run the pruned pass *)
  List.iter
    (fun (dims, n) ->
      let plan = Nufft.Plan.make ~n () in
      let g = plan.Nufft.Plan.g in
      let samples = Nufft.Sample.random ~seed:5 ~dims ~g 200 in
      let before = Telemetry.Counter.value c in
      ignore (Nufft.Plan.adjoint_compiled plan samples);
      let expected =
        if dims = 2 then g + n else (g * g) + (g * n) + (n * n)
      in
      Alcotest.(check int)
        (Printf.sprintf "Plan.adjoint_compiled %dD n=%d lines" dims n)
        expected
        (Telemetry.Counter.value c - before))
    [ (2, 32); (3, 10) ]

let test_pruned_validation () =
  Alcotest.check_raises "n > g"
    (Invalid_argument "Fftnd.transform_cropped: need 1 <= n <= g") (fun () ->
      Fft.Fftnd.transform_cropped Fft.Dft.Inverse ~dims:2 ~g:4 ~n:5
        (Cvec.create 16));
  Alcotest.check_raises "dims"
    (Invalid_argument "Fftnd.transform_padded: dims must be 2 or 3")
    (fun () ->
      Fft.Fftnd.transform_padded Fft.Dft.Forward ~dims:1 ~g:4 ~n:2
        (Cvec.create 4))

let test_smooth_helpers () =
  Alcotest.(check bool) "640" true (Fft.Fft1d.is_smooth 640);
  Alcotest.(check bool) "1" true (Fft.Fft1d.is_smooth 1);
  Alcotest.(check bool) "34" false (Fft.Fft1d.is_smooth 34);
  Alcotest.(check bool) "0" false (Fft.Fft1d.is_smooth 0);
  Alcotest.(check int) "next 34" 36 (Fft.Fft1d.next_smooth 34);
  Alcotest.(check int) "next 640" 640 (Fft.Fft1d.next_smooth 640);
  Alcotest.(check int) "next 7" 8 (Fft.Fft1d.next_smooth 7);
  Alcotest.(check int) "next 1" 1 (Fft.Fft1d.next_smooth 1)

(* A batch of non-smooth lines is rejected by the in-place batch entry. *)
let test_batch_rejects_non_smooth () =
  Alcotest.check_raises "len 7"
    (Invalid_argument "Fft1d.transform_batch: len must be 2^a * 3^b * 5^c")
    (fun () ->
      Fft.Fft1d.transform_batch Fft.Dft.Forward (Cvec.create 14) ~off:0
        ~count:2 ~len:7)

(* Any length with a prime factor above 5 raises [Invalid_argument]
   before the transform starts: the input buffer is bitwise unchanged. *)
let test_non_smooth_raises () =
  let rng = Random.State.make [| 17 |] in
  let check msg len f =
    let v = rand_vec rng len in
    let before = Cvec.copy v in
    (match f v with
    | () -> Alcotest.failf "%s: no Invalid_argument" msg
    | exception Invalid_argument _ -> ());
    check_bitwise (msg ^ ": buffer untouched") ~full:before ~pruned:v
      (List.init len Fun.id)
  in
  List.iter
    (fun n ->
      check (Printf.sprintf "1d n=%d" n) n
        (Fft.Fft1d.transform Fft.Dft.Forward))
    [ 7; 17; 34 ];
  check "2d 6x7" 42 (Fft.Fftnd.transform_2d Fft.Dft.Forward ~nx:6 ~ny:7);
  check "3d 4x14x4" (4 * 14 * 4)
    (Fft.Fftnd.transform_3d Fft.Dft.Inverse ~nx:4 ~ny:14 ~nz:4);
  check "cropped g=14" (14 * 14)
    (Fft.Fftnd.transform_cropped Fft.Dft.Inverse ~dims:2 ~g:14 ~n:7)

let test_size_mismatch () =
  Alcotest.check_raises "2d size"
    (Invalid_argument "Fftnd.transform_2d: size mismatch") (fun () ->
      Fft.Fftnd.transform_2d Fft.Dft.Forward ~nx:4 ~ny:4 (Cvec.create 8))

let smooth_upto n = List.filter Fft.Fft1d.is_smooth (List.init n succ)

let prop_fft_dft_agree =
  QCheck.Test.make ~name:"fft = dft on random sizes" ~count:60
    QCheck.(pair (oneofl (smooth_upto 80)) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let v = rand_vec rng n in
      let fft = Fft.Fft1d.transformed Fft.Dft.Forward v in
      let dft = Fft.Dft.transform Fft.Dft.Forward v in
      Cvec.max_abs_diff fft dft <= 1e-7 *. float_of_int (max 1 n))

let prop_roundtrip =
  QCheck.Test.make ~name:"inverse_normalized . forward = id" ~count:60
    QCheck.(pair (oneofl (smooth_upto 128)) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let v = rand_vec rng n in
      let back = Fft.Fft1d.inverse_normalized
          (Fft.Fft1d.transformed Fft.Dft.Forward v) in
      Cvec.max_abs_diff v back <= 1e-8)

(* Every 5-smooth length up to 2000, each checked in both directions
   against the O(n^2) DFT. One case covers all lengths (about 9 s of DFT
   in the dev profile). *)
let smooth_lengths = smooth_upto 2000

let rel_l2 ~reference v =
  let num = ref 0.0 and den = ref 0.0 in
  for k = 0 to Cvec.length v - 1 do
    let dr = Cvec.get_re v k -. Cvec.get_re reference k
    and di = Cvec.get_im v k -. Cvec.get_im reference k in
    num := !num +. (dr *. dr) +. (di *. di);
    den :=
      !den
      +. (Cvec.get_re reference k ** 2.0)
      +. (Cvec.get_im reference k ** 2.0)
  done;
  if !den = 0.0 then sqrt !num else sqrt (!num /. !den)

let prop_smooth_lengths =
  QCheck.Test.make
    ~name:"fft = dft on every 5-smooth length <= 2000 (rel l2 <= 1e-12)"
    ~count:1
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.iter
        (fun n ->
          List.iter
            (fun dir ->
              let v = rand_vec rng n in
              let err =
                rel_l2 ~reference:(Fft.Dft.transform dir v)
                  (Fft.Fft1d.transformed dir v)
              in
              if err > 1e-12 then
                QCheck.Test.fail_reportf "n=%d %s rel l2 %.3e" n
                  (if dir = Fft.Dft.Forward then "forward" else "inverse")
                  err)
            [ Fft.Dft.Forward; Fft.Dft.Inverse ])
        smooth_lengths;
      true)

let qtests =
  Qutil.to_alcotests [ prop_fft_dft_agree; prop_roundtrip; prop_smooth_lengths ]

let () =
  Alcotest.run "fft"
    [ ("helpers",
       [ Alcotest.test_case "5-smooth" `Quick test_smooth_helpers ]);
      ("fft1d",
       [ Alcotest.test_case "impulse" `Quick test_fft_impulse;
         Alcotest.test_case "single tone" `Quick test_fft_single_tone;
         Alcotest.test_case "matches dft (pow2)" `Quick test_fft_matches_dft_pow2;
         Alcotest.test_case "matches dft (mixed radix)" `Quick
           test_fft_matches_dft_mixed_radix;
         Alcotest.test_case "cache interleaving" `Quick test_cache_interleaving;
         Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
         Alcotest.test_case "linearity" `Quick test_fft_linearity;
         Alcotest.test_case "parseval" `Quick test_parseval;
         Alcotest.test_case "batch rejects non-smooth len" `Quick
           test_batch_rejects_non_smooth ]);
      ("fftnd",
       [ Alcotest.test_case "2d matches dft" `Quick test_fft2d_matches_dft;
         Alcotest.test_case "2d roundtrip" `Quick test_fft2d_roundtrip;
         Alcotest.test_case "3d roundtrip" `Quick test_fft3d_roundtrip;
         Alcotest.test_case "3d separable" `Quick test_fft3d_separable;
         Alcotest.test_case "fftshift" `Quick test_fftshift;
         Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
         Alcotest.test_case "non-smooth lengths raise, buffer untouched"
           `Quick test_non_smooth_raises;
         Alcotest.test_case "pruned = full, bitwise" `Quick
           test_pruned_matches_full;
         Alcotest.test_case "pruned line counts" `Quick
           test_pruned_line_counts;
         Alcotest.test_case "pruned validation" `Quick test_pruned_validation ]);
      ("properties", qtests) ]
