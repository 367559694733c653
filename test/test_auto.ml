(* backend = "auto": the static rule that resolves it to the one
   production CPU engine, and the registry that rule picks from. An
   "auto" request must be indistinguishable from naming replay-simd
   explicitly — the same image, bit for bit, and the same plan-cache
   entry — in 2D and 3D; the CPU registry holds only the scalar serial
   reference and replay-simd, and the retired engine names fail typed. *)

module Op = Nufft.Operator
module Sample = Nufft.Sample
module Svc = Pipeline.Recon_service
module Cache = Pipeline.Plan_cache

let sok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "request failed: %s" (Svc.error_message e)

let check_bitwise what a b =
  let n = Numerics.Cvec.length a in
  Alcotest.(check int) (what ^ ": length") n (Numerics.Cvec.length b);
  for i = 0 to (2 * n) - 1 do
    let x = Bigarray.Array1.get a i and y = Bigarray.Array1.get b i in
    if Int64.bits_of_float x <> Int64.bits_of_float y then
      Alcotest.failf "%s: float %d differs (%h vs %h)" what i x y
  done

let request ~backend ~n coords =
  { Svc.backend;
    transform = Nufft.Transform.Type1;
    n;
    coords;
    values = coords.Sample.values;
    density = None;
    method_ = Svc.Adjoint;
    tol = None;
    family = None }

(* auto, explicit, auto: one miss builds the entry, both later requests
   hit it, and every image is the same bits. *)
let auto_matches_explicit ~dims ~n ~m () =
  let coords = Sample.random ~seed:(17 + dims) ~dims ~g:(2 * n) m in
  let svc = Svc.create () in
  let auto1 = sok (Svc.submit svc (request ~backend:"auto" ~n coords)) in
  let explicit =
    sok (Svc.submit svc (request ~backend:"replay-simd" ~n coords))
  in
  let auto2 = sok (Svc.submit svc (request ~backend:"auto" ~n coords)) in
  check_bitwise "auto = replay-simd" explicit.Svc.image auto1.Svc.image;
  check_bitwise "auto again = replay-simd" explicit.Svc.image auto2.Svc.image;
  let s = Cache.stats (Svc.cache svc) in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "then hits" 2 s.Cache.hits;
  Alcotest.(check int) "one shared entry" 1 s.Cache.entries

let test_static_rule () =
  Alcotest.(check string) "auto_backend" "replay-simd" Op.auto_backend;
  Alcotest.(check string) "auto resolves" "replay-simd"
    (Op.resolve_backend "auto");
  Alcotest.(check string) "explicit names stand" "serial"
    (Op.resolve_backend "serial");
  let coords = Sample.random_2d ~seed:5 ~g:32 300 in
  Alcotest.(check string) "Tuner.resolve ignores its default" "replay-simd"
    (Nufft.Tuner.resolve ~default:"serial" ~n:16 ~coords ());
  let pool = Runtime.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  Alcotest.(check string) "Tuner.resolve ignores the pool" "replay-simd"
    (Nufft.Tuner.resolve ~pool ~default:"serial" ~n:16 ~coords ())

let removed =
  [ "output-parallel"; "binned"; "slice"; "slice-parallel"; "replay-parallel" ]

let test_registry_cpu_entries () =
  Alcotest.(check (list string)) "2D" [ "serial"; "replay-simd" ]
    (Op.names ~dims:2 ());
  Alcotest.(check (list string)) "3D" [ "serial"; "replay-simd" ]
    (Op.names ~dims:3 ())

let test_removed_names_fail_typed () =
  let coords = Sample.random_2d ~seed:3 ~g:32 64 in
  let ctx = Op.context ~n:16 ~coords () in
  List.iter
    (fun name ->
      match Op.create name ctx with
      | exception Invalid_argument msg ->
          Alcotest.(check string) (name ^ " lists the registry")
            (Printf.sprintf
               "Operator: unknown backend %S (registered: serial, \
                replay-simd)"
               name)
            msg
      | _ -> Alcotest.failf "%s still creates an operator" name)
    removed;
  let svc = Svc.create () in
  List.iter
    (fun name ->
      match Svc.submit svc (request ~backend:name ~n:16 coords) with
      | Error (Svc.Invalid_request _) -> ()
      | Error e ->
          Alcotest.failf "%s: wrong error %s" name (Svc.error_message e)
      | Ok _ -> Alcotest.failf "%s: request succeeded" name)
    removed

let () =
  Alcotest.run "auto"
    [ ( "auto",
        [ Alcotest.test_case "2d matches explicit replay-simd" `Quick
            (auto_matches_explicit ~dims:2 ~n:16 ~m:300);
          Alcotest.test_case "3d matches explicit replay-simd" `Quick
            (auto_matches_explicit ~dims:3 ~n:8 ~m:200);
          Alcotest.test_case "static rule ignores pool and default" `Quick
            test_static_rule ] );
      ( "cpu registry",
        [ Alcotest.test_case "exactly serial and replay-simd" `Quick
            test_registry_cpu_entries;
          Alcotest.test_case "removed names fail typed" `Quick
            test_removed_names_fail_typed ] ) ]
