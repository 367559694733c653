(* A task is one parallel_for submission: participants claim [chunk]-sized
   index ranges from [next] until it passes [t_stop]. [unfinished] counts
   participants (workers + caller) that have not yet quiesced on this task;
   it and [failure] are guarded by the pool mutex. *)
type task = {
  ranges : lo:int -> hi:int -> unit;
  t_stop : int;
  chunk : int;
  next : int Atomic.t;
  t_submit : int;
      (* monotonic ns at publish when telemetry is enabled, else 0; lets
         every participant split its involvement into queue-wait vs run
         time without extra synchronisation *)
  mutable unfinished : int;
  mutable failure : exn option;
}

(* Scheduling telemetry: one "pool.submit" span on the caller per
   parallel_for, and per participant a synthetic "pool.wait" span
   (publish -> first claim) followed by a real "pool.run" span, each on
   the participant's own domain track. *)
let c_tasks = Telemetry.Counter.make "pool.tasks"
let c_chunks = Telemetry.Counter.make "pool.chunks"
let h_wait = Telemetry.Histogram.make "pool.wait_us"
let h_run = Telemetry.Histogram.make "pool.run_us"

type t = {
  mutable workers : unit Domain.t array;
  total : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  (* All below guarded by [mutex]. A generation bump publishes [current];
     every worker responds to every generation exactly once, so the caller
     can wait for [unfinished = 0] without tracking which workers ran. *)
  mutable current : task option;
  mutable generation : int;
  mutable stopping : bool;
  mutable shut_down : bool;
}

let size pool = pool.total
let is_shut_down pool = pool.shut_down

let run_task pool task =
  let t_start = if task.t_submit > 0 then Telemetry.Clock.now_ns () else 0 in
  let chunks = ref 0 in
  let failed =
    try
      let continue = ref true in
      while !continue do
        let lo = Atomic.fetch_and_add task.next task.chunk in
        if lo >= task.t_stop then continue := false
        else begin
          incr chunks;
          task.ranges ~lo ~hi:(min task.t_stop (lo + task.chunk))
        end
      done;
      None
    with e ->
      (* Park the counter at the end so no further chunks are claimed;
         in-flight chunks on other participants run to completion. *)
      Atomic.set task.next task.t_stop;
      Some e
  in
  if task.t_submit > 0 then begin
    let t_end = Telemetry.Clock.now_ns () in
    Telemetry.emit_span ~cat:"pool" ~name:"pool.wait" ~ts_ns:task.t_submit
      ~dur_ns:(t_start - task.t_submit) ();
    Telemetry.emit_span ~cat:"pool" ~name:"pool.run" ~ts_ns:t_start
      ~dur_ns:(t_end - t_start) ();
    Telemetry.Histogram.observe h_wait
      (float_of_int (t_start - task.t_submit) /. 1e3);
    Telemetry.Histogram.observe h_run (float_of_int (t_end - t_start) /. 1e3);
    Telemetry.Counter.add c_chunks !chunks
  end;
  Mutex.lock pool.mutex;
  (match failed with
  | Some e when task.failure = None -> task.failure <- Some e
  | _ -> ());
  task.unfinished <- task.unfinished - 1;
  if task.unfinished = 0 then Condition.broadcast pool.work_done;
  Mutex.unlock pool.mutex

let worker pool =
  let gen_seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while pool.generation = !gen_seen && not pool.stopping do
      Condition.wait pool.work_ready pool.mutex
    done;
    (* A pending generation is served even if a shutdown races in. *)
    if pool.generation <> !gen_seen then begin
      gen_seen := pool.generation;
      let task = Option.get pool.current in
      Mutex.unlock pool.mutex;
      run_task pool task
    end
    else begin
      running := false;
      Mutex.unlock pool.mutex
    end
  done

let create ?domains () =
  let total =
    match domains with
    | Some d when d >= 1 -> d
    | Some _ -> invalid_arg "Pool.create: domains < 1"
    | None -> Domain.recommended_domain_count ()
  in
  let pool =
    { workers = [||];
      total;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      current = None;
      generation = 0;
      stopping = false;
      shut_down = false }
  in
  pool.workers <-
    Array.init (total - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

(* Several chunks per participant so an expensive index range (a dense
   trajectory region, a run of FFT lines landing on a slow core) cannot
   serialise the tail of the submission. *)
let default_chunk total ~start ~stop = max 1 ((stop - start) / (total * 8))

(* Adaptive work coarsening. The per-chunk cost of a submission (atomic
   claim, cache traffic on the task record, the closure call) is fixed, so
   a chunk must carry enough elementary operations to amortise it; but a
   chunk must also stay small enough that the pool keeps several chunks
   per participant for dynamic load balancing. [min_chunk_work] is the
   amortisation floor in caller-declared work units (one unit ~ one
   boundary check or one multiply-accumulate). *)
let min_chunk_work = 16_384

let adaptive_chunk pool ~items ~work_per_item =
  if work_per_item < 1 then
    invalid_arg "Pool.adaptive_chunk: work_per_item < 1";
  if items <= 0 then 1
  else
    let balance = items / (pool.total * 8) in
    let amortize = (min_chunk_work + work_per_item - 1) / work_per_item in
    max 1 (min items (max balance amortize))

let serial_chunked ranges ~start ~stop ~chunk =
  let lo = ref start in
  while !lo < stop do
    let hi = min stop (!lo + chunk) in
    ranges ~lo:!lo ~hi;
    lo := hi
  done

let parallel_for_ranges ?chunk pool ~start ~stop ranges =
  if stop > start then begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Pool.parallel_for: chunk < 1"
      | None -> default_chunk pool.total ~start ~stop
    in
    Mutex.lock pool.mutex;
    if pool.shut_down || pool.stopping || Array.length pool.workers = 0 then begin
      Mutex.unlock pool.mutex;
      let sp = Telemetry.span_begin ~cat:"pool" "pool.serial" in
      serial_chunked ranges ~start ~stop ~chunk;
      Telemetry.span_end sp
    end
    else begin
      let sp = Telemetry.span_begin ~cat:"pool" "pool.submit" in
      Telemetry.Counter.incr c_tasks;
      let task =
        { ranges;
          t_stop = stop;
          chunk;
          next = Atomic.make start;
          t_submit =
            (if Telemetry.enabled () then Telemetry.Clock.now_ns () else 0);
          unfinished = Array.length pool.workers + 1;
          failure = None }
      in
      pool.current <- Some task;
      pool.generation <- pool.generation + 1;
      Condition.broadcast pool.work_ready;
      Mutex.unlock pool.mutex;
      run_task pool task;
      Mutex.lock pool.mutex;
      while task.unfinished > 0 do
        Condition.wait pool.work_done pool.mutex
      done;
      pool.current <- None;
      Mutex.unlock pool.mutex;
      Telemetry.span_end sp;
      match task.failure with None -> () | Some e -> raise e
    end
  end

let parallel_for ?chunk pool ~start ~stop body =
  parallel_for_ranges ?chunk pool ~start ~stop (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        body i
      done)

let shutdown pool =
  Mutex.lock pool.mutex;
  if pool.shut_down || pool.stopping then Mutex.unlock pool.mutex
  else begin
    pool.stopping <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.workers;
    Mutex.lock pool.mutex;
    pool.workers <- [||];
    pool.shut_down <- true;
    Mutex.unlock pool.mutex
  end

(* ------------------------------------------------------------------ *)
(* Process-wide default pool *)

let global_mutex = Mutex.create ()
let global_pool = ref None
let global_domains = ref None

let global () =
  Mutex.lock global_mutex;
  let p =
    match !global_pool with
    | Some p when not p.shut_down -> p
    | _ ->
        let p = create ?domains:!global_domains () in
        global_pool := Some p;
        p
  in
  Mutex.unlock global_mutex;
  p

let global_size () =
  Mutex.lock global_mutex;
  let n =
    match !global_pool with
    | Some p when not p.shut_down -> p.total
    | _ -> (
        match !global_domains with
        | Some d -> d
        | None -> Domain.recommended_domain_count ())
  in
  Mutex.unlock global_mutex;
  n

let set_global_domains d =
  if d < 1 then invalid_arg "Pool.set_global_domains: domains < 1";
  Mutex.lock global_mutex;
  global_domains := Some d;
  let stale =
    match !global_pool with
    | Some p when p.total <> d ->
        global_pool := None;
        Some p
    | _ -> None
  in
  Mutex.unlock global_mutex;
  match stale with Some p -> shutdown p | None -> ()
