(* The serving tier driven over loopback from the same process.

   A [Server] with two worker domains, its default admission queue, and a
   [Client] per connection. Legs are open loop: request [k] is due at
   [start + k / rate] and goes out on connection [k mod conns]. Latency is
   timed from that due time, so a send delayed by a busy connection counts
   against the system. When a connection is idle at the due time, the gap
   between due time and actual send is the generator's own lateness,
   recorded separately: a leg whose generator fell behind is void. *)

module P = Serving.Protocol
module C = Serving.Client
module S = Serving.Server
module Prom = Serving.Prometheus

let now = Unix.gettimeofday

let config ~workers =
  { S.default_config with
    S.workers;
    tenants = { Serving.Tenants.default_config with default_backend = "auto" } }

type server = { srv : S.t; conns : C.t array }

let start ~workers ~conns =
  let srv = S.create ~config:(config ~workers) () in
  S.start srv;
  let port = S.port srv in
  { srv; conns = Array.init conns (fun _ -> C.connect ~port ()) }

(* Close the clients, drain, and join every server thread and domain.
   Returns whether the drain completed. *)
let stop s =
  Array.iter C.close s.conns;
  S.stop ~timeout_s:30.0 s.srv

let workspace_in_use s =
  (Pipeline.Workspace.stats (Serving.Tenants.workspace (S.tenants s.srv)))
    .Pipeline.Workspace.in_use

(* ------------------------------------------------------------------ *)
(* /metrics *)

type scrape = { accepted : float; requests : float; shed : float }

let scrape conn =
  match C.metrics conn with
  | Error e -> failwith ("metrics scrape: " ^ C.call_error_message e)
  | Ok text -> (
      match Prom.parse text with
      | Error e -> failwith ("metrics parse: " ^ e)
      | Ok (samples, _) ->
          let get name = Option.value ~default:0.0 (Prom.find samples name) in
          { accepted = get "srv_accepted_total";
            requests = get "srv_requests_total";
            shed = get "srv_shed_total" })

(* ------------------------------------------------------------------ *)
(* Open-loop legs *)

type outcome = Ok_image | Wrong_image | Shed | Failed

type leg = {
  rate : float;
  sent : int;
  ok : int;
  shed : int;
  failed : int;
  wrong : int;
  latencies_ms : float list;  (** successful requests, from due time *)
  rss_mib : float list;  (** resident set after each completion *)
  lateness_ms : float list;  (** generator lateness, idle connections *)
  first_third_ms : float list;
  last_third_ms : float list;
  span_s : float;  (** first due time to last completion *)
}

(* [run_leg s ~rate ~duration ~request ~check] offers [rate * duration]
   requests. [request k] builds request [k]; [check k response] classifies
   a successful wire response (the output oracle). *)
let run_leg s ~rate ~duration ~request ~check =
  let nconn = Array.length s.conns in
  let total = max 1 (int_of_float (Float.round (rate *. duration))) in
  let start = now () +. 0.02 in
  let due k = start +. (float_of_int k /. rate) in
  let results = Array.make total (Failed, 0.0, 0.0, 0.0) in
  let rss = Array.make total 0.0 in
  let worker c () =
    let conn = s.conns.(c) in
    let k = ref c in
    while !k < total do
      let d = due !k in
      let free = now () in
      let late =
        if free < d then begin
          Thread.delay (d -. free);
          Float.max 0.0 (now () -. d)
        end
        else 0.0
      in
      let outcome =
        match C.call conn (P.Recon (request !k)) with
        | Ok (P.Recon_ok r) -> if check !k r then Ok_image else Wrong_image
        | Ok (P.Err (P.Shed, _)) -> Shed
        | Ok _ | Error _ -> Failed
      in
      let fin = now () in
      results.(!k) <- (outcome, fin -. d, late, fin);
      rss.(!k) <- Bstats.rss_mib ();
      k := !k + nconn
    done
  in
  let threads = Array.init nconn (fun c -> Thread.create (worker c) ()) in
  Array.iter Thread.join threads;
  let count o = Array.fold_left (fun n (o', _, _, _) -> if o = o' then n + 1 else n) 0 results in
  let lat_of lo hi =
    let acc = ref [] in
    for k = lo to hi - 1 do
      match results.(k) with
      | Ok_image, l, _, _ -> acc := (1000.0 *. l) :: !acc
      | _ -> ()
    done;
    !acc
  in
  let last = Array.fold_left (fun m (_, _, _, f) -> Float.max m f) start results in
  { rate;
    sent = total;
    ok = count Ok_image;
    shed = count Shed;
    failed = count Failed;
    wrong = count Wrong_image;
    latencies_ms = lat_of 0 total;
    rss_mib = Array.to_list rss;
    lateness_ms =
      Array.fold_left (fun acc (_, _, l, _) -> (1000.0 *. l) :: acc) [] results;
    first_third_ms = lat_of 0 (total / 3);
    last_third_ms = lat_of (total - (total / 3)) total;
    span_s = last -. start }

let latency_limit_ms = 100.0

(* The generator fell behind when its own lateness, on idle connections,
   reaches a quarter of the latency limit at the 90th percentile, judged
   over at least 20 requests. *)
let generator_void leg =
  match Bstats.percentile ~min_tail:2 0.9 leg.lateness_ms with
  | Some p -> p.Bstats.value > latency_limit_ms /. 4.0
  | None -> false

let p90 leg = Bstats.percentile 0.9 leg.latencies_ms

(* A rung of the rate ladder passes when p90 meets the limit over at least
   100 timed requests, nothing was shed or failed, and the backlog did not
   grow (the last third's median stayed within twice the first third's). *)
let rung_passes leg =
  leg.shed = 0 && leg.failed = 0 && leg.wrong = 0
  && (match p90 leg with
     | Some p -> p.Bstats.value <= latency_limit_ms
     | None -> false)
  && (match (leg.first_third_ms, leg.last_third_ms) with
     | [], _ | _, [] -> false
     | a, b -> Bstats.median b <= 2.0 *. Float.max (Bstats.median a) 1.0)

let goodput leg = Bstats.per_second leg.ok leg.span_s
