(* The four workloads, untraced: end-to-end metrics only.

   warm-2d, dynamic-2d and cg-3d are closed loops from one caller through
   [Recon_service.submit] on a service with a two-domain pool. served-2d
   is an open loop over loopback against a two-worker [Server]. Every
   response is checked against the serial oracle. *)

module Svc = Pipeline.Recon_service
module P = Serving.Protocol

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ = { name; value; unit_ }

type result = {
  e2e : metric list;  (** the metrics BENCHMARK.json lists, in order *)
  report : metric list;  (** further metrics, printed by name and unit *)
  engine : string;  (** what backend "auto" resolved to *)
  attempted : int;
  failed : int;  (** errors + shed + wrong images *)
  wrong : int;
}

let now = Unix.gettimeofday
let setup_reps = 3
let setup_max_reps = 7
let setup_budget_s = 3.0
let pool_domains = 2



let engine_for (p : Inputs.problem) =
  Nufft.Tuner.resolve ~default:"serial" ~n:p.Inputs.n ~coords:p.Inputs.coords ()

(* ------------------------------------------------------------------ *)
(* Direct (in-process) workloads *)

type direct = { pool : Runtime.Pool.t; svc : Svc.t }

let create_direct () =
  let pool = Runtime.Pool.create ~domains:pool_domains () in
  { pool; svc = Svc.create ~pool () }

let close_direct d = Runtime.Pool.shutdown d.pool

let submit_exn svc req =
  match Svc.submit svc req with
  | Ok r -> r.Svc.image
  | Error e -> failwith ("set-up request failed: " ^ Svc.error_message e)

(* Set up from nothing (fresh pool, service, plan cache, tuner table) at
   least [setup_reps] times, and more while the set-ups took under
   [setup_budget_s] in all (at most [setup_max_reps]), keeping the last;
   [warm] issues the requests that fill the caches. Returns the kept
   service and the median set-up time. *)
let repeated ~create ~close ~warm =
  let times = ref [] and kept = ref None in
  let reps () = List.length !times in
  while
    reps () < setup_reps
    || (reps () < setup_max_reps && List.fold_left ( +. ) 0.0 !times < setup_budget_s)
  do
    Option.iter close !kept;
    kept := None;
    Nufft.Tuner.reset ();
    Gc.compact ();
    let t0 = now () in
    let d = create () in
    warm d;
    times := (now () -. t0) :: !times;
    kept := Some d
  done;
  (Option.get !kept, Bstats.median !times)

type tally = {
  mutable lat_ms : float list;
  mutable rss : float list;
  mutable ok : int;
  mutable errors : int;
  mutable wrong : int;
}

(* Share of the run spent on untimed warm-up requests after set-up. *)
let warmup_share = 0.1

(* Closed loop for [seconds]: [next k] gives request [k] and, for checked
   requests, the oracle image. Only the [submit] call is timed. The heap
   is compacted after set-up and the first [warmup_share] of the time (at
   least one request) is untimed, so every run starts measuring from the
   same state; warm-up responses are still checked. *)
let closed_loop ~seconds svc next =
  let t = { lat_ms = []; rss = []; ok = 0; errors = 0; wrong = 0 } in
  Gc.compact ();
  let start = now () in
  let warm_end = start +. (warmup_share *. seconds) in
  let deadline = start +. seconds in
  let k = ref 0 in
  while now () < deadline do
    let timed = !k > 0 && now () >= warm_end in
    let req, want = next !k in
    let t0 = now () in
    let r = Svc.submit svc req in
    let dt = now () -. t0 in
    if timed then t.rss <- Bstats.rss_mib () :: t.rss;
    (match r with
    | Ok resp -> (
        if timed then t.lat_ms <- (1000.0 *. dt) :: t.lat_ms;
        match want with
        | Some w when not (Bstats.matches ~want:w resp.Svc.image) ->
            t.wrong <- t.wrong + 1
        | _ -> t.ok <- t.ok + 1)
    | Error e ->
        prerr_endline ("request failed: " ^ Svc.error_message e);
        t.errors <- t.errors + 1);
    incr k
  done;
  t

(* Sustained throughput, robust to a stray slow request: the timed
   requests are cut into [slices] consecutive groups, each group's rate is
   its size over its busy time, and the median group rate is reported. *)
let slices = 5

let sliced_throughput lat_ms =
  let a = Array.of_list (List.rev lat_ms) in
  let n = Array.length a in
  let k = min slices n in
  let rate i =
    let lo = i * n / k and hi = (i + 1) * n / k in
    let busy = ref 0.0 in
    for j = lo to hi - 1 do
      busy := !busy +. a.(j)
    done;
    Bstats.per_second (hi - lo) (!busy /. 1000.0)
  in
  Bstats.median (List.init k rate)

let direct_result ~setup_s ~engine t =
  let attempted = t.ok + t.errors + t.wrong in
  let failed = t.errors + t.wrong in
  let p90 =
    match Bstats.percentile 0.9 t.lat_ms with
    | Some p -> [ metric "latency_p90_ms" p.Bstats.value "ms" ]
    | None -> []
  in
  { e2e =
      [ metric "setup_s" setup_s "s";
        metric "latency_p50_ms" (Bstats.median t.lat_ms) "ms";
        metric "throughput_rps" (sliced_throughput t.lat_ms) "1/s";
        metric "rss_p50_mib" (Bstats.median t.rss) "MiB" ];
    report =
      p90
      @ [ metric "peak_rss_mib" (Bstats.peak_rss_mib ()) "MiB";
          metric "requests_timed" (float_of_int (List.length t.lat_ms)) "count";
          metric "error_rate"
            (Bstats.ratio (float_of_int failed) (float_of_int attempted))
            "ratio" ];
    engine;
    attempted;
    failed;
    wrong = t.wrong }

let warm_2d ~size ~seed ~seconds =
  let sz = Inputs.sizes size in
  let p, values = Inputs.warm sz ~seed in
  let reqs = Array.map (Inputs.request p) values in
  let refs = Array.map (Oracle.reference p) values in
  let d, setup_s =
    repeated ~create:create_direct ~close:close_direct ~warm:(fun d ->
        ignore (submit_exn d.svc reqs.(0)))
  in
  let engine = engine_for p in
  let nv = Array.length reqs in
  let t =
    closed_loop ~seconds d.svc (fun k ->
        (reqs.(k mod nv), Some refs.(k mod nv)))
  in
  close_direct d;
  direct_result ~setup_s ~engine t

(* Frames checked against the oracle: a fixed subset. *)
let dynamic_checked = [ 0; 10; 20; 30 ]

let dynamic_2d ~size ~seed ~seconds =
  let sz = Inputs.sizes size in
  let dyn = Inputs.dynamic sz ~seed in
  let refs =
    List.map
      (fun k ->
        let p, v = Inputs.frame dyn k in
        (k, Oracle.reference p v))
      dynamic_checked
  in
  let warm_p, warm_v = Inputs.frame dyn (-1) in
  let d, setup_s =
    repeated ~create:create_direct ~close:close_direct ~warm:(fun d ->
        ignore (submit_exn d.svc (Inputs.request warm_p warm_v)))
  in
  let engine = engine_for warm_p in
  let t =
    closed_loop ~seconds d.svc (fun k ->
        let p, v = Inputs.frame dyn k in
        (Inputs.request p v, List.assoc_opt k refs))
  in
  close_direct d;
  direct_result ~setup_s ~engine t

let cg_3d ~size ~seed ~seconds =
  let sz = Inputs.sizes size in
  let p, v = Inputs.cg sz ~seed in
  let method_ = Svc.Cg sz.Inputs.cg_iters in
  let req = Inputs.request ~method_ p v in
  let want = Oracle.reference ~method_ p v in
  let d, setup_s =
    repeated ~create:create_direct ~close:close_direct ~warm:(fun d ->
        ignore (submit_exn d.svc req))
  in
  let engine = engine_for p in
  let t = closed_loop ~seconds d.svc (fun _ -> (req, Some want)) in
  close_direct d;
  direct_result ~setup_s ~engine t

(* ------------------------------------------------------------------ *)
(* served-2d *)

(* Fixed offered rates, requests/second on two connections, below the
   knee measured near 12 requests/second on a 2-vCPU Xeon VM. *)
let light_rate = 6.0
let busy_rate = 10.0

(* The rate ladder: rung i offers [ladder_base * 1.08^i]. *)
let ladder_base = 5.0
let ladder_rungs = 16
let ladder_rate i = ladder_base *. (1.08 ** float_of_int i)

let tenant_name t = Printf.sprintf "tenant-%d" t

type served_inputs = {
  problems : Inputs.problem array;
  wire : P.recon_request array array;  (** tenant, value set *)
  refs : Numerics.Cvec.t array array;
  tenants : int;
  sets : int;
}

let served_inputs sz ~seed =
  let ts = Inputs.served sz ~seed in
  { problems = Array.map fst ts;
    wire =
      Array.mapi
        (fun t (p, vs) ->
          Array.map (Inputs.wire_request ~tenant:(tenant_name t) p) vs)
        ts;
    refs = Array.map (fun (p, vs) -> Array.map (Oracle.reference p) vs) ts;
    tenants = Array.length ts;
    sets = Array.length (snd ts.(0)) }

let pick si k = (k mod si.tenants, k / si.tenants mod si.sets)

let served_request si k =
  let t, v = pick si k in
  si.wire.(t).(v)

let served_check si k (r : P.recon_response) =
  let t, v = pick si k in
  Bstats.matches_interleaved ~want:si.refs.(t).(v) r.P.image

(* One request per tenant, so every tenant's plan is built. *)
let served_warm si (s : Served.server) =
  for t = 0 to si.tenants - 1 do
    let conn = s.Served.conns.(t mod Array.length s.Served.conns) in
    match Serving.Client.call conn (P.Recon si.wire.(t).(0)) with
    | Ok (P.Recon_ok r) when Bstats.matches_interleaved ~want:si.refs.(t).(0) r.P.image -> ()
    | Ok (P.Recon_ok _) -> failwith "set-up request returned a wrong image"
    | Ok (P.Err (st, msg)) -> failwith ("set-up request: " ^ P.status_name st ^ " " ^ msg)
    | Ok _ -> failwith "set-up request: unexpected response"
    | Error e -> failwith ("set-up request: " ^ Serving.Client.call_error_message e)
  done

let served_setup si =
  repeated
    ~create:(fun () -> Served.start ~workers:2 ~conns:2)
    ~close:(fun s -> ignore (Served.stop s))
    ~warm:(served_warm si)

(* Binary search over the fixed ladder for the highest passing rung; each
   probe times at least 100 requests. *)
let ladder si s =
  let lo = ref (-1) and hi = ref ladder_rungs and legs = ref [] in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    let rate = ladder_rate mid in
    let leg =
      Served.run_leg s ~rate ~duration:(100.0 /. rate)
        ~request:(served_request si) ~check:(served_check si)
    in
    legs := leg :: !legs;
    let pass = Served.rung_passes leg in
    Printf.eprintf "  ladder     %.2f req/s: %d timed, p90 %s ms, shed %d, %s\n" rate
      (List.length leg.Served.latencies_ms)
      (match Served.p90 leg with
      | Some p -> Printf.sprintf "%.1f" p.Bstats.value
      | None -> "n/a")
      leg.Served.shed
      (if pass then "pass" else "fail");
    if pass then lo := mid else hi := mid
  done;
  ((if !lo < 0 then 0.0 else ladder_rate !lo), !legs)

exception Void of string

let served_2d ?(ladder_search = false) ~size ~seed ~seconds () =
  (* Counters on, span recording off: how [jigsaw serve] runs. *)
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  let sz = Inputs.sizes size in
  let si = served_inputs sz ~seed in
  let s, setup_s = served_setup si in
  Gc.compact ();
  let engine = engine_for si.problems.(0) in
  let before = Served.scrape s.Served.conns.(0) in
  let leg rate frac =
    Served.run_leg s ~rate ~duration:(frac *. seconds)
      ~request:(served_request si) ~check:(served_check si)
  in
  (* An untimed leg first: the heap and the connections settle. *)
  let warmup = leg light_rate warmup_share in
  let light = leg light_rate 0.6 in
  let busy = leg busy_rate 0.3 in
  let max_rate, rungs =
    if ladder_search then
      let r, legs = ladder si s in
      (Some r, legs)
    else (None, [])
  in
  let after = Served.scrape s.Served.conns.(0) in
  let legs = warmup :: light :: busy :: rungs in
  let sum f = List.fold_left (fun n l -> n + f l) 0 legs in
  let sent = sum (fun l -> l.Served.sent)
  and shed = sum (fun l -> l.Served.shed)
  and errors = sum (fun l -> l.Served.failed)
  and wrong = sum (fun l -> l.Served.wrong) in
  let server_stats = Serving.Server.stats s.Served.srv in
  let drained = Served.stop s in
  let in_use = Served.workspace_in_use s in
  (* Hygiene: the server's own counters must agree with the client's. The
     closing scrape counts itself as one request. *)
  let problems =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [ ( after.Served.requests -. before.Served.requests = float_of_int (sent + 1),
          Printf.sprintf "/metrics requests %+.0f, client sent %d + 1 scrape"
            (after.Served.requests -. before.Served.requests) sent );
        ( after.Served.shed -. before.Served.shed = float_of_int shed,
          Printf.sprintf "/metrics shed %+.0f, client saw %d"
            (after.Served.shed -. before.Served.shed) shed );
        ( server_stats.Serving.Server.s_accepted = Array.length s.Served.conns,
          Printf.sprintf "server accepted %d connections, client opened %d"
            server_stats.Serving.Server.s_accepted (Array.length s.Served.conns) );
        (drained, "server did not drain");
        (in_use = 0, Printf.sprintf "Workspace in_use = %d after drain" in_use) ]
  in
  List.iter (fun m -> prerr_endline ("served-2d hygiene: " ^ m)) problems;
  List.iter
    (fun l ->
      if Served.generator_void l then
        raise
          (Void
             (Printf.sprintf "generator fell behind at %.1f req/s" l.Served.rate)))
    [ light; busy ];
  let pct p l =
    match Served.(Bstats.percentile p l.latencies_ms) with
    | Some x -> [ x.Bstats.value ]
    | None -> []
  in
  let opt name unit_ = List.map (fun v -> metric name v unit_) in
  let failed = shed + errors + wrong + List.length problems in
  let late l =
    match Bstats.percentile ~min_tail:0 0.9 l.Served.lateness_ms with
    | Some p -> p.Bstats.value
    | None -> 0.0
  in
  { e2e =
      [ metric "setup_s" setup_s "s";
        metric "latency_p50_ms" (Bstats.median light.Served.latencies_ms) "ms";
        metric "throughput_rps" (Served.goodput light) "1/s";
        metric "rss_p50_mib" (Bstats.median light.Served.rss_mib) "MiB" ];
    report =
      metric "peak_rss_mib" (Bstats.peak_rss_mib ()) "MiB" ::
      opt "latency_p90_ms" "ms" (pct 0.9 light)
      @ opt "busy_latency_p50_ms" "ms" (pct 0.5 busy)
      @ opt "busy_latency_p90_ms" "ms" (pct 0.9 busy)
      @ opt "max_rate_rps" "1/s" (Option.to_list max_rate)
      @ [ metric "light_rate_rps" light_rate "1/s";
          metric "busy_rate_rps" busy_rate "1/s";
          metric "light_requests_timed" (float_of_int (List.length light.Served.latencies_ms)) "count";
          metric "busy_requests_timed" (float_of_int (List.length busy.Served.latencies_ms)) "count";
          metric "ladder_probes" (float_of_int (List.length rungs)) "count";
          metric "generator_lateness_p90_ms" (Float.max (late light) (late busy)) "ms";
          metric "error_rate"
            (Bstats.ratio (float_of_int failed) (float_of_int sent))
            "ratio" ];
    engine;
    attempted = sent;
    failed;
    wrong }

let run ?ladder_search name ~size ~seed ~seconds =
  match name with
  | "warm-2d" -> warm_2d ~size ~seed ~seconds
  | "dynamic-2d" -> dynamic_2d ~size ~seed ~seconds
  | "served-2d" -> served_2d ?ladder_search ~size ~seed ~seconds ()
  | "cg-3d" -> cg_3d ~size ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)

let names = [ "warm-2d"; "dynamic-2d"; "served-2d"; "cg-3d" ]
