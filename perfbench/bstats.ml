(* Summary statistics, ratio helpers and the output oracle's comparison.

   Percentiles follow the nearest-rank rule on the sorted sample and come
   with the count they were taken over. A tail percentile is reported only
   when at least [min_tail] samples lie beyond it (p90 needs 100 samples),
   so a p90 over a dozen requests is never passed off as a tail. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank: the smallest value with at least [p] of the sample at or
   below it. [p] in (0, 1]. *)
let nearest_rank (a : float array) p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstats.nearest_rank: empty sample";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

type pct = { value : float; count : int }

(* [percentile ?min_tail p xs] is [None] when fewer than [min_tail]
   samples lie above the [p] quantile. The median needs none. *)
let percentile ?(min_tail = 10) p xs =
  let a = sorted xs in
  let n = Array.length a in
  let tail = float_of_int n *. (1.0 -. p) in
  if n = 0 then None
  else if p > 0.5 && tail < float_of_int min_tail -. 1e-9 then None
  else Some { value = nearest_rank a p; count = n }

let median xs =
  match percentile 0.5 xs with
  | Some p -> p.value
  | None -> invalid_arg "Bstats.median: empty sample"

(* Ratio helpers: a zero denominator yields [default] rather than an
   infinity that would not survive JSON. *)
let ratio ?(default = 0.0) num den = if den = 0.0 then default else num /. den

let pct_of ?default part whole = 100.0 *. ratio ?default part whole

let per_second count seconds = ratio (float_of_int count) seconds

let mib bytes = float_of_int bytes /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Process memory *)

(* A memory field of /proc/self/status ("VmRSS", "VmHWM"), in MiB. *)
let status_mib field =
  let key = field ^ ":" in
  let k = String.length key in
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > k && String.sub line 0 k = key ->
            Scanf.sscanf
              (String.sub line k (String.length line - k))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> failwith (field ^ " not found")
      in
      find ())

(* Resident set under load: sampled after each completed request. The
   process high-water mark (VmHWM) is reported beside it; it also holds
   the set-up peak and moves with GC timing from run to run. *)
let rss_mib () = status_mib "VmRSS"
let peak_rss_mib () = status_mib "VmHWM"

(* ------------------------------------------------------------------ *)
(* Output oracle *)

module Cvec = Numerics.Cvec

(* Relative L2 distance ||got - want|| / ||want||; lengths must agree. *)
let rel_l2 ~(want : Cvec.t) (got : Cvec.t) =
  let n = Cvec.length want in
  if Cvec.length got <> n then infinity
  else begin
    let num = ref 0.0 in
    for j = 0 to n - 1 do
      let dr = Cvec.get_re got j -. Cvec.get_re want j
      and di = Cvec.get_im got j -. Cvec.get_im want j in
      num := !num +. (dr *. dr) +. (di *. di)
    done;
    let den = Cvec.norm2 want in
    if den = 0.0 then (if !num = 0.0 then 0.0 else infinity)
    else sqrt (!num /. den)
  end

let oracle_threshold = 1e-12

let matches ~want got =
  let e = rel_l2 ~want got in
  Float.is_finite e && e <= oracle_threshold

(* Same comparison for an interleaved re/im float array, the shape a
   decoded wire response carries. *)
let matches_interleaved ~(want : Cvec.t) (got : float array) =
  let n = Cvec.length want in
  Array.length got = 2 * n
  &&
  let v = Cvec.create n in
  for j = 0 to n - 1 do
    Cvec.set_parts v j got.(2 * j) got.((2 * j) + 1)
  done;
  matches ~want v

(* Bit-for-bit equality, for the traced replay against [submit]. *)
let bitwise_equal (a : Cvec.t) (b : Cvec.t) =
  let n = Cvec.length a in
  n = Cvec.length b
  &&
  let ok = ref true in
  for j = 0 to n - 1 do
    if
      Int64.bits_of_float (Cvec.get_re a j)
      <> Int64.bits_of_float (Cvec.get_re b j)
      || Int64.bits_of_float (Cvec.get_im a j)
         <> Int64.bits_of_float (Cvec.get_im b j)
    then ok := false
  done;
  !ok
