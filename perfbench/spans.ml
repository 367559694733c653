(* The benchmark's own span recorder.

   Spans are recorded around calls into each layer's public functions from
   the benchmark's files; the program's built-in telemetry stays off, so
   nothing inside the library records anything. Spans are kept in memory,
   summarised by name, and written as a Chrome trace_event file at the
   end of the run. *)

let now_ns = Telemetry.Clock.now_ns

type span = {
  id : int;  (** creation order *)
  name : string;
  ts : int;  (** start, ns on the monotonic clock *)
  dur : int;  (** ns *)
  tid : int;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  request : int;  (** request identifier shared by a request's spans *)
}

type t = {
  mutable spans : span list;
  mutable count : int;
  mutable stack : int list;  (** indices of open spans, innermost first *)
  mutable request : int;
  durations : (string, float list) Hashtbl.t;  (** ms, newest first *)
}

let create () =
  { spans = [];
    count = 0;
    stack = [];
    request = 0;
    durations = Hashtbl.create 32 }

let set_request t id = t.request <- id

(* [time t name f] runs [f], records a span named [name] and adds its
   duration to the per-name sample. Spans opened inside [f] are its
   children. *)
let time t name f =
  let idx = t.count in
  t.count <- t.count + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- idx :: t.stack;
  let t0 = now_ns () in
  let finish () =
    let t1 = now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id = idx;
        name;
        ts = t0;
        dur = t1 - t0;
        tid = (Domain.self () :> int);
        parent;
        request = t.request }
      :: t.spans;
    let ms = float_of_int (t1 - t0) /. 1e6 in
    Hashtbl.replace t.durations name
      (ms :: Option.value ~default:[] (Hashtbl.find_opt t.durations name));
    ms
  in
  match f () with
  | r ->
      ignore (finish ());
      r
  | exception e ->
      ignore (finish ());
      raise e

(* Untraced timing of one call, in ms. *)
let ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) /. 1e6)

let samples t name =
  Option.value ~default:[] (Hashtbl.find_opt t.durations name)

let median t name =
  match samples t name with [] -> 0.0 | xs -> Bstats.median xs

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_chrome t path =
  let spans = List.rev t.spans in
  let base = List.fold_left (fun acc s -> min acc s.ts) max_int spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          let cat =
            match String.index_opt s.name '.' with
            | Some k -> String.sub s.name 0 k
            | None -> s.name
          in
          Printf.fprintf oc
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"request\":%d}}\n"
            (if i = 0 then "" else ",")
            (escape s.name) (escape cat)
            (float_of_int (s.ts - base) /. 1e3)
            (float_of_int s.dur /. 1e3)
            s.tid s.id s.parent s.request)
        spans;
      output_string oc "]}\n")
