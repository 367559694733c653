(* The traced run: per-layer metrics.

   The service's request path is replayed stage by stage from this file,
   each stage a span around one public call into its layer:

     Tuner.resolve -> Recon_service.operator (Plan_cache) | Plan.make +
     Plan.compiled -> Sample_plan.spread_parallel_into -> Fftnd.transform_*
     -> Plan.crop_deapodize_*_into -> scale -> copy

   Each replayed image must be bitwise equal to the image [submit] returns
   for the same request; traced replays and untraced submits alternate,
   so the stage sum can be set against the submit time (unattributed
   share) and the traced request against the untraced one (tracing
   overhead). The other layers — CG, the wire codec, tenants, the server
   — are timed on the workload's own inputs. Sizes and counts labelled
   "computed" are derived from layouts, not measured. *)

module Op = Nufft.Operator
module Plan = Nufft.Plan
module SP = Nufft.Sample_plan
module Sample = Nufft.Sample
module Cvec = Numerics.Cvec
module Fftnd = Fft.Fftnd
module Dft = Fft.Dft
module Cg = Imaging.Cg
module Svc = Pipeline.Recon_service
module P = Serving.Protocol
module W = Workloads

type result = {
  metrics : W.metric list;
  engine : string;
  attempted : int;
  failed : int;
  trace_file : string;
}

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let ok_exn = function
  | Ok x -> x
  | Error e -> failwith (Svc.error_message e)

(* Outcome tally: every replay, submit and wire exchange is attempted;
   a mismatch (bitwise or against the oracle) fails it. *)
type tally = { mutable attempted : int; mutable failed : int }

let check tally what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    prerr_endline ("mismatch: " ^ what)
  end

(* ------------------------------------------------------------------ *)
(* Stage replay of the service's adjoint path *)

type bufs = { grid : Cvec.t; image : Cvec.t; vals : Cvec.t; line : Cvec.t }

let bufs (p : Inputs.problem) =
  let g = Inputs.grid_of p.Inputs.n and d = Inputs.dims p in
  { grid = Cvec.create (pow g d);
    image = Cvec.create (pow p.Inputs.n d);
    vals = Cvec.create (Inputs.length p);
    line = Cvec.create g }

(* Density weighting as the service applies it: w*re, w*im. *)
let weight_into (w : float array) (values : Cvec.t) (out : Cvec.t) =
  for j = 0 to Cvec.length values - 1 do
    let s = w.(j) in
    Cvec.set_parts out j (s *. Cvec.get_re values j) (s *. Cvec.get_im values j)
  done

let fft ?pool ?scratch dir ~g ~dims grid =
  match dims with
  | 2 -> Fftnd.transform_2d ?pool ?scratch dir ~nx:g ~ny:g grid
  | _ -> Fftnd.transform_3d ?pool ?scratch dir ~nx:g ~ny:g ~nz:g grid

let resolve (req : Svc.request) =
  Nufft.Tuner.resolve ?tol:req.Svc.tol ?family:req.Svc.family
    ~default:"serial" ~n:req.Svc.n ~coords:req.Svc.coords ()

(* The plan the plan cache would build for [backend]: the same context,
   engine and SIMD flag as the registry's CPU factories. *)
let make_plan ~backend (req : Svc.request) =
  let ctx =
    Op.context ~w:6 ~sigma:Inputs.sigma ~l:512 ~n:req.Svc.n
      ~coords:req.Svc.coords ()
  in
  let g = Op.ctx_grid ctx and w = ctx.Op.w in
  let engine =
    match backend with
    | "slice" -> Nufft.Gridding.Slice_and_dice (Nufft.Coord.fallback_tile ~g ~w)
    | "slice-parallel" ->
        Nufft.Gridding.Slice_parallel (Nufft.Coord.fallback_tile ~g ~w)
    | _ -> Nufft.Gridding.Serial
  in
  Plan.make ~kernel:ctx.Op.kernel ~w ~sigma:ctx.Op.sigma ~l:ctx.Op.l ~engine
    ~simd:(backend = "replay-simd") ~n:req.Svc.n ()

(* Spread -> inverse FFT -> crop/deapodize -> scale -> copy, exactly as
   the service's fused fast path runs them. *)
let replay_tail tr ?pool b ~plan ~splan (req : Svc.request) =
  let dims = Sample.dims req.Svc.coords and g = plan.Plan.g in
  let m = Cvec.length req.Svc.values in
  let vals =
    match req.Svc.density with
    | None -> req.Svc.values
    | Some w ->
        Spans.time tr "recon_service.weight" (fun () ->
            weight_into w req.Svc.values b.vals;
            b.vals)
  in
  Spans.time tr "sample_plan.spread" (fun () ->
      SP.spread_parallel_into ?pool ~simd:plan.Plan.simd splan vals b.grid);
  Spans.time tr "fftnd.inverse" (fun () ->
      fft ?pool ~scratch:b.line Dft.Inverse ~g ~dims b.grid);
  Spans.time tr "apodization.deapod" (fun () ->
      match dims with
      | 2 -> Plan.crop_deapodize_2d_into plan b.grid b.image
      | _ -> Plan.crop_deapodize_3d_into plan b.grid b.image);
  Spans.time tr "cvec.scale" (fun () ->
      Cvec.scale_inplace (1.0 /. float_of_int m) b.image);
  Spans.time tr "cvec.copy" (fun () -> Cvec.copy b.image)

(* Warm request: the operator comes from the plan cache. *)
let replay_warm tr ?pool svc b (req : Svc.request) =
  Spans.time tr "request" (fun () ->
      let backend = Spans.time tr "tuner.resolve" (fun () -> resolve req) in
      let op, canonical =
        Spans.time tr "plan_cache.operator" (fun () ->
            ok_exn
              (Svc.operator svc ~backend ~n:req.Svc.n ~coords:req.Svc.coords))
      in
      let plan = Option.get (Op.plan_of op) in
      let splan = Spans.time tr "plan.compiled" (fun () -> Plan.compiled plan canonical) in
      replay_tail tr ?pool b ~plan ~splan req)

(* Cold request: plan built and compiled here, as a cache miss would. *)
let cold_plan tr ?pool req =
  let backend = Spans.time tr "tuner.resolve" (fun () -> resolve req) in
  let plan = Spans.time tr "plan.make" (fun () -> make_plan ~backend req) in
  let splan =
    Spans.time tr "plan.compile" (fun () -> Plan.compiled plan req.Svc.coords)
  in
  Option.iter
    (fun p ->
      ignore
        (Spans.time tr "sample_plan.partition" (fun () ->
             SP.partition splan ~shards:(Runtime.Pool.size p))))
    pool;
  (plan, splan)

let replay_cold tr ?pool b req =
  Spans.time tr "request" (fun () ->
      let plan, splan = cold_plan tr ?pool req in
      replay_tail tr ?pool b ~plan ~splan req)

(* An operator whose adjoint and forward run the compiled-plan stages one
   public call at a time, as [Plan.adjoint_compiled] / [forward_compiled]
   do on a pool-less cached plan — CG through it is bitwise the service's
   CG. *)
let traced_op tr ~(plan : Plan.plan) ~splan ~(coords : Sample.t) : Op.op =
  let p = plan in
  let dims = Sample.dims coords and g = p.Plan.g in
  let simd = p.Plan.simd in
  (module struct
    let name = "traced"
    let dims = dims
    let n = p.Plan.n
    let g = g
    let plan = Some p
    let transforms = [ Nufft.Transform.Type1; Nufft.Transform.Type2 ]

    let adjoint (s : Sample.t) =
      let grid =
        Spans.time tr "sample_plan.spread" (fun () ->
            SP.spread_parallel ~simd splan s.Sample.values)
      in
      Spans.time tr "fftnd.inverse" (fun () -> fft Dft.Inverse ~g ~dims grid);
      Spans.time tr "apodization.deapod" (fun () ->
          match dims with
          | 2 -> Plan.crop_deapodize_2d p grid
          | _ -> Plan.crop_deapodize_3d p grid)

    let forward image =
      let big =
        Spans.time tr "apodization.pad" (fun () ->
            match dims with
            | 2 -> Plan.pad_apodize_2d p image
            | _ -> Plan.pad_apodize_3d p image)
      in
      Spans.time tr "fftnd.forward" (fun () -> fft Dft.Forward ~g ~dims big);
      Sample.with_values coords
        (Spans.time tr "sample_plan.gather" (fun () ->
             SP.gather_parallel ~simd splan big))

    let type3 = None
    let stats () = Op.create_stats ()
  end : Op.NUFFT_OP)

let cg_solve tr ~plan ~splan ~iters (req : Svc.request) =
  let op = traced_op tr ~plan ~splan ~coords:req.Svc.coords in
  let samples = Sample.with_values req.Svc.coords req.Svc.values in
  let weights = req.Svc.density in
  let rhs =
    Spans.time tr "cg.rhs" (fun () -> Cg.normal_equations_rhs_op ?weights op samples)
  in
  Spans.time tr "cg.solve" (fun () ->
      Cg.solve ~max_iterations:iters ~apply:(Cg.normal_map ?weights op) rhs)

(* ------------------------------------------------------------------ *)
(* Per-request stage sums from the span tree *)

(* For each "request" span: (its duration, the sum of its direct
   children), in ms. *)
let request_sums (tr : Spans.t) =
  let spans = tr.Spans.spans in
  List.filter_map
    (fun (s : Spans.span) ->
      if s.Spans.name <> "request" then None
      else
        let kids =
          List.fold_left
            (fun acc (c : Spans.span) ->
              if c.Spans.parent = s.Spans.id then acc + c.Spans.dur else acc)
            0 spans
        in
        Some (float_of_int s.Spans.dur /. 1e6, float_of_int kids /. 1e6))
    spans

(* ------------------------------------------------------------------ *)
(* Host copy bandwidth: a copy whose two arrays together are at least 4x
   the last-level cache, so it streams from memory. *)

let llc_bytes () =
  let read path =
    match open_in path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> try Some (input_line ic) with End_of_file -> None)
    | exception Sys_error _ -> None
  in
  let size_of s =
    try Scanf.sscanf s "%d%c" (fun v u -> match u with 'K' -> v * 1024 | 'M' -> v * 1048576 | _ -> v)
    with _ -> 0
  in
  let best = ref 0 in
  for i = 0 to 4 do
    match read (Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/size" i) with
    | Some s -> best := max !best (size_of s)
    | None -> ()
  done;
  if !best = 0 then 32 * 1048576 else !best

let copy_gbps ~bytes =
  let floats = bytes / 8 in
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout floats in
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout floats in
  Bigarray.Array1.fill a 1.0;
  Bigarray.Array1.fill b 0.0;
  let best = ref infinity in
  for _ = 1 to 3 do
    let _, ms = Spans.ms (fun () -> Bigarray.Array1.blit a b) in
    best := Float.min !best ms
  done;
  (* Bytes read plus bytes written. *)
  2.0 *. float_of_int (8 * floats) /. (!best /. 1e3) /. 1e9

(* ------------------------------------------------------------------ *)
(* Wire codec *)

type codec = {
  enc_req : float;
  dec_req : float;
  enc_resp : float;
  dec_resp : float;
  req_bytes : int;
}

let decode_frame s =
  let d = P.Decoder.create () in
  P.Decoder.feed_string d s;
  match P.Decoder.next d with
  | Ok (Some f) -> f
  | Ok None -> failwith "incomplete frame"
  | Error e -> failwith (P.error_message e)

(* Encode and decode one request and its response [reps] times; the
   decoded response image is checked against the oracle. *)
let codec tr tally ~reps (wr : P.recon_request) ~(want : Cvec.t) =
  let resp =
    P.Recon_ok
      { P.iterations = 0;
        elapsed_s = 0.0;
        image_n = wr.P.n;
        image_dims = wr.P.dims;
        image = Inputs.interleaved want }
  in
  let bytes = ref 0 in
  for _ = 1 to reps do
    let enc = Spans.time tr "protocol.encode_request" (fun () -> P.encode_request (P.Recon wr)) in
    bytes := String.length enc;
    let dec =
      Spans.time tr "protocol.decode_request" (fun () -> P.decode_request (decode_frame enc))
    in
    check tally "decoded wire request"
      (match dec with Ok r -> P.request_equal r (P.Recon wr) | Error _ -> false);
    let renc = Spans.time tr "protocol.encode_response" (fun () -> P.encode_response resp) in
    let rdec =
      Spans.time tr "protocol.decode_response" (fun () -> P.decode_response (decode_frame renc))
    in
    check tally "decoded wire response vs oracle"
      (match rdec with
      | Ok (P.Recon_ok r) -> Bstats.matches_interleaved ~want r.P.image
      | _ -> false)
  done;
  { enc_req = Spans.median tr "protocol.encode_request";
    dec_req = Spans.median tr "protocol.decode_request";
    enc_resp = Spans.median tr "protocol.encode_response";
    dec_resp = Spans.median tr "protocol.decode_response";
    req_bytes = !bytes }

let codec_ms c = c.enc_req +. c.dec_req +. c.enc_resp +. c.dec_resp

(* ------------------------------------------------------------------ *)
(* The workload's request stream, as the traced run sees it *)

type stream = {
  problem : int -> Inputs.problem * Cvec.t;  (** request k's inputs *)
  method_ : Svc.method_;
  repeated : bool;  (** one trajectory, served warm from the plan cache *)
  pooled : bool;  (** direct submits on a two-domain service pool *)
  wire_case : bool;  (** coordinates arrive as fresh arrays per request *)
  tenant_reqs : int;  (** requests through Tenants.handle / the server *)
}

let stream name ~size ~seed =
  let sz = Inputs.sizes size in
  match name with
  | "warm-2d" ->
      let p, vs = Inputs.warm sz ~seed in
      { problem = (fun _ -> (p, vs.(0)));
        method_ = Svc.Adjoint;
        repeated = true;
        pooled = true;
        wire_case = false;
        tenant_reqs = 6 }
  | "dynamic-2d" ->
      let d = Inputs.dynamic sz ~seed in
      { problem = Inputs.frame d;
        method_ = Svc.Adjoint;
        repeated = false;
        pooled = true;
        wire_case = false;
        tenant_reqs = 4 }
  | "served-2d" ->
      let ts = Inputs.served sz ~seed in
      { problem = (fun _ -> (fst ts.(0), (snd ts.(0)).(0)));
        method_ = Svc.Adjoint;
        repeated = true;
        pooled = false;
        wire_case = true;
        tenant_reqs = 20 }
  | "cg-3d" ->
      let p, v = Inputs.cg sz ~seed in
      { problem = (fun _ -> (p, v));
        method_ = Svc.Cg sz.Inputs.cg_iters;
        repeated = true;
        pooled = true;
        wire_case = false;
        tenant_reqs = 2 }
  | w -> invalid_arg ("unknown workload " ^ w)

(* The request [submit] sees: on the wire path, coordinates are rebuilt
   from radians per request, as [Tenants] does. *)
let request st k =
  let p, v = st.problem k in
  let req = Inputs.request ~method_:st.method_ p v in
  if st.wire_case then
    { req with
      Svc.coords =
        Sample.of_omega ~g:(Inputs.grid_of p.Inputs.n) ~omega:p.Inputs.omega
          ~values:v }
  else req

let wire_method = function
  | Svc.Adjoint -> P.Adjoint
  | Svc.Cg k -> P.Cg k

(* ------------------------------------------------------------------ *)

let min_reps = 3

let time_counter name f =
  let was = Telemetry.enabled () and spans = Telemetry.span_recording () in
  Telemetry.set_enabled true;
  Telemetry.set_span_recording false;
  let value () =
    Option.value ~default:0 (List.assoc_opt name (Telemetry.Counter.all ()))
  in
  let before = value () in
  let r, ms = Spans.ms f in
  let after = value () in
  Telemetry.set_enabled was;
  Telemetry.set_span_recording spans;
  (r, ms, after - before)

let durations (tr : Spans.t) name =
  List.filter_map
    (fun (s : Spans.span) ->
      if s.Spans.name = name then Some (float_of_int s.Spans.dur /. 1e6) else None)
    tr.Spans.spans

let run name ~size ~seed ~seconds ~out =
  let tally = { attempted = 0; failed = 0 } in
  let st = stream name ~size ~seed in
  let host_copy =
    copy_gbps
      ~bytes:(match size with Inputs.Full -> 2 * llc_bytes () | Inputs.Small -> 1 lsl 22)
  in
  Gc.compact ();
  let p0, v0 = st.problem 0 in
  let req0 = request st 0 in
  let dims = Inputs.dims p0 and m = Inputs.length p0 and n = p0.Inputs.n in
  let g = Inputs.grid_of n in
  let want0 = Oracle.reference ~method_:st.method_ p0 v0 in
  (* Tuner: a cold resolve, as on a service's first request. *)
  Nufft.Tuner.reset ();
  let engine, tuner_ms, tuner_trials =
    time_counter "tuner.trial" (fun () -> resolve req0)
  in
  (* Cold plan build and a two-shard partition, on fresh plans. The warm
     workloads never build in their request loop; the others do, there. *)
  let tr_cold = Spans.create () in
  let plan_words = ref 0 in
  for k = 0 to (if dims = 3 then 0 else 2) do
    let req = request st (if st.repeated then 0 else 1000 + k) in
    let _, splan = cold_plan tr_cold req in
    plan_words := SP.memory_words splan;
    ignore
      (Spans.time tr_cold "sample_plan.partition" (fun () ->
           SP.partition splan ~shards:W.pool_domains))
  done;
  Gc.compact ();
  let tr = Spans.create () in
  let tr_cg = Spans.create () in
  let tr_wire = Spans.create () in
  let pool =
    if st.pooled then Some (Runtime.Pool.create ~domains:W.pool_domains ())
    else None
  in
  let svc = Svc.create ?pool () in
  let b = bufs p0 in
  let submit_ms = ref [] in
  let cg_runs = ref [] in
  (* Alternate untraced submits and traced replays of the same request. *)
  let budget_end = Unix.gettimeofday () +. (0.5 *. seconds) in
  let rep = ref 0 in
  if st.repeated then ignore (ok_exn (Svc.submit svc req0));
  while !rep < min_reps || Unix.gettimeofday () < budget_end do
    let k = !rep in
    let req = request st k in
    let untraced () =
      let r, ms = Spans.ms (fun () -> Svc.submit svc req) in
      submit_ms := ms :: !submit_ms;
      (ok_exn r).Svc.image
    in
    let traced () =
      Spans.set_request tr k;
      match (st.method_, st.repeated) with
      | Svc.Cg iters, _ ->
          Spans.time tr "request" (fun () ->
              let plan, splan = cold_plan tr req in
              let res = cg_solve tr ~plan ~splan ~iters req in
              cg_runs := res.Cg.iterations :: !cg_runs;
              res.Cg.solution)
      | Svc.Adjoint, true -> replay_warm tr ?pool svc b req
      | Svc.Adjoint, false -> replay_cold tr ?pool b req
    in
    let a, t =
      if k mod 2 = 0 then
        let a = untraced () in
        (a, traced ())
      else
        let t = traced () in
        (untraced (), t)
    in
    check tally "traced replay vs submit (bitwise)" (Bstats.bitwise_equal t a);
    if k = 0 then check tally "submit vs serial oracle" (Bstats.matches ~want:want0 a);
    incr rep
  done;
  let cache = Pipeline.Plan_cache.stats (Svc.cache svc) in
  (* Plan-cache lookup on equal-but-distinct coordinate arrays. *)
  let lookups =
    List.init 5 (fun _ ->
        let coords =
          Sample.of_omega ~g ~omega:p0.Inputs.omega ~values:(Cvec.create m)
        in
        snd (Spans.ms (fun () -> ignore (Svc.operator svc ~backend:engine ~n ~coords))))
  in
  (* CG on the workload's trajectory, when its requests are not CG. *)
  let cg_tr =
    match st.method_ with
    | Svc.Cg _ -> tr
    | Svc.Adjoint ->
        let op, canonical =
          ok_exn (Svc.operator svc ~backend:engine ~n ~coords:req0.Svc.coords)
        in
        let plan = Option.get (Op.plan_of op) in
        let res =
          cg_solve tr_cg ~plan ~splan:(Plan.compiled plan canonical)
            ~iters:(Inputs.sizes size).Inputs.cg_iters
            { req0 with Svc.coords = canonical }
        in
        cg_runs := [ res.Cg.iterations ];
        tr_cg
  in
  let cg_iterations = List.hd !cg_runs in
  let cg_solve_ms = Bstats.median (durations cg_tr "cg.solve") in
  Option.iter Runtime.Pool.shutdown pool;
  Gc.compact ();
  (* Wire codec on the workload's request and oracle image. *)
  let wire k =
    let p, v = st.problem k in
    Inputs.wire_request ~method_:(wire_method st.method_) ~tenant:"probe" p v
  in
  let codec = codec tr_wire tally ~reps:5 (wire 0) ~want:want0 in
  (* Tenants.handle, warm after its first (cold) request where the
     trajectory repeats. *)
  let tenants =
    Serving.Tenants.create
      ~config:{ Serving.Tenants.default_config with default_backend = "auto" }
      ()
  in
  let handle_ms = ref [] in
  for k = 0 to st.tenant_reqs do
    let r, ms = Spans.ms (fun () -> Serving.Tenants.handle tenants (wire k)) in
    if k > 0 || not st.repeated then handle_ms := ms :: !handle_ms;
    if k = 0 then
      check tally "Tenants.handle vs serial oracle"
        (match r with
        | Ok resp -> Bstats.matches_interleaved ~want:want0 resp.P.image
        | Error _ -> false)
  done;
  Gc.compact ();
  (* The server over loopback, counters on as [jigsaw serve] runs it. *)
  Telemetry.set_enabled true;
  let s = Served.start ~workers:2 ~conns:1 in
  let conn = s.Served.conns.(0) in
  let client_ms = ref [] in
  for k = 0 to st.tenant_reqs do
    let r, ms = Spans.ms (fun () -> Serving.Client.call conn (P.Recon (wire k))) in
    if k > 0 || not st.repeated then client_ms := ms :: !client_ms;
    if k = 0 then
      check tally "served response vs serial oracle"
        (match r with
        | Ok (P.Recon_ok resp) -> Bstats.matches_interleaved ~want:want0 resp.P.image
        | _ -> false)
  done;
  let scrape = Served.scrape conn in
  let drained = Served.stop s in
  check tally "server drained" drained;
  check tally "Workspace in_use = 0 after drain" (Served.workspace_in_use s = 0);
  Telemetry.set_enabled false;
  (* Summaries *)
  let sums = request_sums tr in
  let submit = Bstats.median !submit_ms in
  let traced_req = Bstats.median (List.map fst sums) in
  let stage_sum = Bstats.median (List.map snd sums) in
  let spread = Spans.median tr "sample_plan.spread" in
  let handle = Bstats.median !handle_ms in
  (* A plan stage from the request loop where it runs there, else from
     the cold pass. *)
  let plan_stage name =
    match Spans.samples tr name with
    | [] -> Spans.median tr_cold name
    | xs -> Bstats.median xs
  in
  let transforms_per_request =
    match st.method_ with Svc.Cg k -> 1 + (2 * k) | Svc.Adjoint -> 1
  in
  let fft_lines = dims * pow g (dims - 1) in
  let mflop =
    float_of_int (transforms_per_request * fft_lines)
    *. Fft.Fft1d.flop_estimate g /. 1e6
  in
  let per_sample bytes = Bstats.ratio (float_of_int bytes) (float_of_int m) in
  let hits = cache.Pipeline.Plan_cache.hits
  and misses = cache.Pipeline.Plan_cache.misses in
  let metric = W.metric in
  let metrics =
    [ metric "sample_plan.spread_ms" spread "ms";
      metric "sample_plan.spread_msamples_per_s"
        (Bstats.ratio (float_of_int m) (spread *. 1e3)) "Msample/s";
      metric "sample_plan.gather_ms" (Spans.median cg_tr "sample_plan.gather") "ms";
      metric "sample_plan.partition_ms" (Spans.median tr_cold "sample_plan.partition") "ms";
      metric "sample_plan.bytes_per_sample" (per_sample (8 * !plan_words)) "B";
      metric "sample_plan.grid_bytes_per_sample" (per_sample (16 * pow g dims)) "B";
      metric "plan.make_ms" (plan_stage "plan.make") "ms";
      metric "plan.compile_ms" (plan_stage "plan.compile") "ms";
      metric "apodization.deapod_ms" (Spans.median tr "apodization.deapod") "ms";
      metric "fftnd.inverse_ms" (Spans.median tr "fftnd.inverse") "ms";
      metric "fftnd.forward_ms" (Spans.median cg_tr "fftnd.forward") "ms";
      metric "fftnd.mflop_computed" mflop "Mflop";
      metric "plan_cache.hit_ratio"
        (Bstats.ratio (float_of_int hits) (float_of_int (hits + misses))) "ratio";
      metric "plan_cache.evictions"
        (float_of_int cache.Pipeline.Plan_cache.evictions) "count";
      metric "plan_cache.entry_mib" (Bstats.mib ((8 * !plan_words) + (8 * dims * m))) "MiB";
      metric "plan_cache.lookup_ms" (Bstats.median lookups) "ms";
      metric "tuner.trials" (float_of_int tuner_trials) "count";
      metric "tuner.resolve_ms" tuner_ms "ms";
      metric "cg.iterations" (float_of_int cg_iterations) "count";
      metric "cg.iter_ms"
        (Bstats.ratio cg_solve_ms (float_of_int (max 1 cg_iterations))) "ms";
      metric "protocol.encode_request_ms" codec.enc_req "ms";
      metric "protocol.decode_request_ms" codec.dec_req "ms";
      metric "protocol.encode_response_ms" codec.enc_resp "ms";
      metric "protocol.decode_response_ms" codec.dec_resp "ms";
      metric "protocol.request_bytes_per_sample" (per_sample codec.req_bytes) "B";
      metric "tenants.handle_ms" handle "ms";
      metric "server.queue_wait_ms"
        (Bstats.median !client_ms -. handle -. codec_ms codec) "ms";
      metric "server.accepted" scrape.Served.accepted "count";
      metric "server.shed" scrape.Served.shed "count";
      metric "trace.unattributed_pct"
        (100.0 *. (1.0 -. Bstats.ratio stage_sum submit)) "%";
      metric "trace.overhead_pct" (Bstats.pct_of (traced_req -. submit) submit) "%";
      metric "host.copy_gbps" host_copy "GB/s" ]
  in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let trace_file =
    Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" name seed)
  in
  let all = Spans.create () in
  List.iter
    (fun (t : Spans.t) -> all.Spans.spans <- t.Spans.spans @ all.Spans.spans)
    [ tr_cold; tr; tr_cg; tr_wire ];
  Spans.write_chrome all trace_file;
  { metrics; engine; attempted = tally.attempted; failed = tally.failed; trace_file }
