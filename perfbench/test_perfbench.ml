(* The benchmark's own tests: percentiles with counts, ratio helpers, the
   oracle comparison, and a reduced-size smoke run of every workload,
   untraced and traced, whose metric names must be the ones
   BENCHMARK.json lists. *)

open Perfbench_lib
module Cvec = Numerics.Cvec
module W = Workloads

let close_to = Alcotest.float 1e-12

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  (match Bstats.percentile 0.5 xs with
  | Some p ->
      Alcotest.check close_to "median" 50.0 p.Bstats.value;
      Alcotest.(check int) "count" 100 p.Bstats.count
  | None -> Alcotest.fail "median missing");
  (match Bstats.percentile 0.9 xs with
  | Some p -> Alcotest.check close_to "p90 of 1..100" 90.0 p.Bstats.value
  | None -> Alcotest.fail "p90 over 100 samples has 10 beyond it");
  Alcotest.(check bool)
    "p90 over 99 samples is not reported" true
    (Bstats.percentile 0.9 (List.tl xs) = None);
  Alcotest.(check bool) "empty sample" true (Bstats.percentile 0.5 [] = None);
  Alcotest.check close_to "median of one" 7.0 (Bstats.median [ 7.0 ]);
  Alcotest.check close_to "nearest rank, even count" 2.0
    (Bstats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_ratios () =
  Alcotest.check close_to "ratio" 0.25 (Bstats.ratio 1.0 4.0);
  Alcotest.check close_to "zero denominator" 0.0 (Bstats.ratio 1.0 0.0);
  Alcotest.check close_to "default" (-1.0) (Bstats.ratio ~default:(-1.0) 1.0 0.0);
  Alcotest.check close_to "pct_of" 12.5 (Bstats.pct_of 1.0 8.0);
  Alcotest.check close_to "per_second" 40.0 (Bstats.per_second 10 0.25);
  Alcotest.check close_to "mib" 2.0 (Bstats.mib (2 * 1048576))

let vec xs =
  let v = Cvec.create (List.length xs) in
  List.iteri (fun j (re, im) -> Cvec.set_parts v j re im) xs;
  v

let test_oracle_compare () =
  let want = vec [ (1.0, 2.0); (-3.0, 0.5); (0.0, 4.0) ] in
  Alcotest.check close_to "identical" 0.0 (Bstats.rel_l2 ~want (Cvec.copy want));
  let nudge eps =
    let v = Cvec.copy want in
    Cvec.set_parts v 1 (Cvec.get_re v 1 *. (1.0 +. eps)) (Cvec.get_im v 1);
    v
  in
  Alcotest.(check bool) "1e-15 relative passes" true (Bstats.matches ~want (nudge 1e-15));
  Alcotest.(check bool) "1e-9 relative fails" false (Bstats.matches ~want (nudge 1e-9));
  Alcotest.(check bool) "length mismatch fails" false
    (Bstats.matches ~want (vec [ (1.0, 2.0) ]));
  Alcotest.(check bool) "interleaved" true
    (Bstats.matches_interleaved ~want [| 1.0; 2.0; -3.0; 0.5; 0.0; 4.0 |]);
  Alcotest.(check bool) "interleaved, wrong value" false
    (Bstats.matches_interleaved ~want [| 1.0; 2.0; -3.0; 0.5; 0.0; 4.5 |]);
  Alcotest.(check bool) "bitwise equal" true (Bstats.bitwise_equal want (Cvec.copy want));
  Alcotest.(check bool) "one ulp differs bitwise" false
    (Bstats.bitwise_equal want (nudge epsilon_float))

(* The serial oracle agrees with the service it checks. *)
let test_oracle_vs_service () =
  let sz = Inputs.sizes Inputs.Small in
  let p, values = Inputs.warm sz ~seed:5 in
  let svc = Pipeline.Recon_service.create () in
  match Pipeline.Recon_service.submit svc (Inputs.request p values.(0)) with
  | Ok r ->
      Alcotest.(check bool) "within 1e-12" true
        (Bstats.matches ~want:(Oracle.reference p values.(0)) r.Pipeline.Recon_service.image)
  | Error e -> Alcotest.fail (Pipeline.Recon_service.error_message e)

let test_inputs_seeded () =
  let sz = Inputs.sizes Inputs.Small in
  let a, va = Inputs.warm sz ~seed:9 and b, vb = Inputs.warm sz ~seed:9 in
  let c, _ = Inputs.warm sz ~seed:10 in
  Alcotest.(check bool) "same seed, same coordinates" true (a.Inputs.omega = b.Inputs.omega);
  Alcotest.(check bool) "same seed, same values" true (Bstats.bitwise_equal va.(0) vb.(0));
  Alcotest.(check bool) "another seed, another rotation" false (a.Inputs.omega = c.Inputs.omega);
  let d = Inputs.dynamic sz ~seed:9 in
  let f0, _ = Inputs.frame d 0 and f1, _ = Inputs.frame d 1 in
  Alcotest.(check bool) "frames differ" false (f0.Inputs.omega = f1.Inputs.omega)

(* Metric names listed under [section] in BENCHMARK.json. *)
let listed section =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let start = Option.get (find_from 0 (Printf.sprintf "%S" section)) in
  let stop =
    match find_from (start + 1) "]" with Some i -> i | None -> String.length text
  in
  let rec names i acc =
    match find_from i "\"name\": \"" with
    | Some j when j < stop ->
        let k = j + 9 in
        let e = String.index_from text k '"' in
        names e (String.sub text k (e - k) :: acc)
    | _ -> List.rev acc
  in
  names start []

let sorted = List.sort compare

let finite_metrics what (ms : W.metric list) =
  List.iter
    (fun m ->
      if not (Float.is_finite m.W.value) then
        Alcotest.failf "%s: %s is not finite" what m.W.name)
    ms

let smoke name () =
  let r = W.run name ~size:Inputs.Small ~seed:3 ~seconds:0.3 in
  Alcotest.(check int) (name ^ ": no failures") 0 r.W.failed;
  Alcotest.(check bool) (name ^ ": attempted") true (r.W.attempted > 0);
  Alcotest.(check (list string)) (name ^ ": end-to-end names")
    (sorted (listed "end_to_end")) (sorted (List.map (fun m -> m.W.name) r.W.e2e));
  finite_metrics name r.W.e2e;
  List.iter
    (fun m ->
      if m.W.value <= 0.0 then Alcotest.failf "%s: %s is not positive" name m.W.name)
    r.W.e2e;
  let t = Layers.run name ~size:Inputs.Small ~seed:3 ~seconds:0.1 ~out:"." in
  Alcotest.(check int) (name ^ ": traced mismatches") 0 t.Layers.failed;
  Alcotest.(check (list string)) (name ^ ": per-layer names")
    (sorted (listed "per_layer")) (sorted (List.map (fun m -> m.W.name) t.Layers.metrics));
  finite_metrics name t.Layers.metrics;
  Alcotest.(check bool) (name ^ ": trace written") true (Sys.file_exists t.Layers.trace_file)

let () =
  Alcotest.run "perfbench"
    [ ( "helpers",
        [ Alcotest.test_case "percentile with count" `Quick test_percentile;
          Alcotest.test_case "ratios" `Quick test_ratios;
          Alcotest.test_case "oracle comparison" `Quick test_oracle_compare;
          Alcotest.test_case "oracle vs service" `Quick test_oracle_vs_service;
          Alcotest.test_case "seeded inputs" `Quick test_inputs_seeded ] );
      ( "smoke",
        List.map (fun w -> Alcotest.test_case w `Quick (smoke w)) W.names ) ]
