(* Request-path benchmark entry point.

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1 [--ladder]

   [--trace 0] runs the workload untraced and reports its end-to-end
   metrics; [--trace 1] runs the traced layer pass and reports the
   per-layer metrics (and writes a Chrome trace to .bench_out/). Every
   metric is printed on stderr by name and unit; the last line of stdout
   is the JSON result. *)

open Perfbench_lib
module W = Workloads

let json_number v =
  if not (Float.is_finite v) then failwith "non-finite metric value"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.W.name
          (json_number m.W.value) m.W.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

let print_metric kind m =
  Printf.eprintf "  %-10s %-36s %16.6f %s\n" kind m.W.name m.W.value m.W.unit_

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and ladder = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ( "--ladder",
        Arg.Set ladder,
        " served-2d: also search the rate ladder for max_rate_rps (each rung \
         times 100 requests, so this adds about a minute)" ) ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload W.names) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  match
    if !trace = 0 then begin
      let r =
        W.run ~ladder_search:!ladder !workload ~size:Inputs.Full ~seed:!seed
          ~seconds:!seconds
      in
      Printf.eprintf "%s seed=%d engine=%s attempted=%d failed=%d wrong=%d\n"
        !workload !seed r.W.engine r.W.attempted r.W.failed r.W.wrong;
      List.iter (print_metric "end-to-end") r.W.e2e;
      List.iter (print_metric "report") r.W.report;
      json_result ~correct:(r.W.wrong = 0 && r.W.failed = 0)
        ~attempted:r.W.attempted ~failed:r.W.failed r.W.e2e
    end
    else begin
      let r =
        Layers.run !workload ~size:Inputs.Full ~seed:!seed ~seconds:!seconds
          ~out:".bench_out"
      in
      Printf.eprintf "%s seed=%d traced engine=%s attempted=%d mismatches=%d trace=%s\n"
        !workload !seed r.Layers.engine r.Layers.attempted r.Layers.failed
        r.Layers.trace_file;
      List.iter (print_metric "per-layer") r.Layers.metrics;
      json_result ~correct:(r.Layers.failed = 0) ~attempted:r.Layers.attempted
        ~failed:r.Layers.failed r.Layers.metrics
    end
  with
  | line ->
      print_endline line;
      exit 0
  | exception W.Void msg ->
      prerr_endline ("void run: " ^ msg);
      exit 3
  | exception e ->
      prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
      exit 1
