module Cvec = Numerics.Cvec
module Pool = Runtime.Pool

(* Same-module element accessors; see {!Fft1d} for the [-opaque] /
   cross-module-inlining rationale. *)
module A1 = Bigarray.Array1

let[@inline] get_re (v : Cvec.t) k = A1.unsafe_get v (2 * k)
let[@inline] get_im (v : Cvec.t) k = A1.unsafe_get v ((2 * k) + 1)

let[@inline] set_parts (v : Cvec.t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j re;
  A1.unsafe_set v (j + 1) im

let check_size name n v =
  if Cvec.length v <> n then invalid_arg (name ^ ": size mismatch")

(* Every axis length is checked before any pass runs, so an unsupported
   length leaves the buffer untouched. *)
let check_axis name len =
  if not (Fft1d.is_smooth len) then
    invalid_arg (name ^ ": length must be 2^a * 3^b * 5^c")

let c_lines = Telemetry.Counter.make "fft.lines"

(* Strided lines are gathered [line_block] at a time, side by side, into
   a [line_block * len] scratch: the lines of one block are neighbouring
   columns, so each gather step reads a few adjacent complex values (one
   or two cache lines) instead of one value per cache line, and a
   power-of-2 row stride no longer maps every gathered point to the same
   cache set. The block is transformed in place by
   {!Fft1d.transform_batch} and scattered back. Each line sees exactly
   the arithmetic of a one-line transform. *)
let line_block = 8
let scratch_length ~len = line_block * len

let transform_block dir ~len ~stride ~line_start starts scratch v lo hi =
  let count = hi - lo in
  for b = 0 to count - 1 do
    Array.unsafe_set starts b (line_start (lo + b))
  done;
  for j = 0 to len - 1 do
    let js = j * stride in
    for b = 0 to count - 1 do
      let src = Array.unsafe_get starts b + js in
      set_parts scratch ((b * len) + j) (get_re v src) (get_im v src)
    done
  done;
  Fft1d.transform_batch dir scratch ~off:0 ~count ~len;
  for j = 0 to len - 1 do
    let js = j * stride in
    for b = 0 to count - 1 do
      let dst = Array.unsafe_get starts b + js and k = (b * len) + j in
      set_parts v dst (get_re scratch k) (get_im scratch k)
    done
  done

(* A stride-1 pass needs no scratch: each maximal run of back-to-back
   lines ([line_start (k+1) = line_start k + len], the layout of every
   contiguous row pass) goes through {!Fft1d.transform_batch} in place —
   one C call per run when SIMD dispatch is on. *)
let in_place_runs dir v ~len ~line_start lo hi =
  let k = ref lo in
  while !k < hi do
    let s0 = line_start !k in
    let j = ref (!k + 1) in
    while !j < hi && line_start !j = s0 + ((!j - !k) * len) do
      incr j
    done;
    Fft1d.transform_batch dir v ~off:s0 ~count:(!j - !k) ~len;
    k := !j
  done

(* How one pass moves its lines: in place (stride 1) or in gathered
   blocks (strided). *)
type layout = In_place | Blocked

(* Block scratch for passes without a usable caller buffer (every pooled
   chunk, and serial passes given none) comes from a small shared free
   list instead of a fresh allocation: a [line_block * g] Bigarray is
   tens of KiB, and allocating one per chunk both churns malloc and, past
   the runtime's minor custom-block limit, pushes the major GC on every
   pass. Buffers of any length wait in the list; a borrower takes the
   first long enough (it uses a prefix). At most [max_spares] are kept. *)
let max_spares = 16
let spares_mutex = Mutex.create ()
let spares : Cvec.t list ref = ref []

let borrow need =
  Mutex.lock spares_mutex;
  let rec take acc = function
    | [] -> None
    | s :: rest when Cvec.length s >= need ->
        spares := List.rev_append acc rest;
        Some s
    | s :: rest -> take (s :: acc) rest
  in
  let found = take [] !spares in
  Mutex.unlock spares_mutex;
  match found with Some s -> s | None -> Cvec.create need

let give_back s =
  Mutex.lock spares_mutex;
  if List.length !spares < max_spares then spares := s :: !spares;
  Mutex.unlock spares_mutex

(* Distinct lines of one pass touch disjoint index sets, so the pass is
   race-free when lines are distributed over domains; each chunk gets a
   private scratch buffer.

   [scratch] lets a serving loop donate a preallocated buffer so the
   serial pass touches no shared state: it is used when the pass is
   serial (pooled chunks need private buffers) and holds at least
   [scratch_length ~len] elements. *)
let no_scratch = Cvec.create 0

let with_scratch ?scratch layout ~len f =
  match layout with
  | In_place -> f no_scratch
  | Blocked -> (
      let need = scratch_length ~len in
      match scratch with
      | Some s when Cvec.length s >= need -> f s
      | _ ->
          let s = borrow need in
          Fun.protect ~finally:(fun () -> give_back s) (fun () -> f s))

let run_range layout dir ~len ~stride ~line_start scratch v lo hi =
  match layout with
  | In_place -> in_place_runs dir v ~len ~line_start lo hi
  | Blocked ->
      let starts = Array.make line_block 0 in
      let b = ref lo in
      while !b < hi do
        let e = min hi (!b + line_block) in
        transform_block dir ~len ~stride ~line_start starts scratch v !b e;
        b := e
      done

let transform_lines ?pool ?scratch dir ~len ~count ~stride ~line_start v =
  let sp = Telemetry.span_begin ~cat:"fft" "fft.pass" in
  Telemetry.Counter.add c_lines count;
  let layout = if stride = 1 then In_place else Blocked in
  let run lo hi s =
    run_range layout dir ~len ~stride ~line_start s v lo hi
  in
  (match pool with
  | Some p when Pool.size p > 1 && count > 1 ->
      Pool.parallel_for_ranges p ~start:0 ~stop:count (fun ~lo ~hi ->
          with_scratch layout ~len (run lo hi))
  | _ -> with_scratch ?scratch layout ~len (run 0 count));
  Telemetry.span_end sp

let transform_2d ?pool ?scratch dir ~nx ~ny v =
  check_size "Fftnd.transform_2d" (nx * ny) v;
  check_axis "Fftnd.transform_2d" nx;
  check_axis "Fftnd.transform_2d" ny;
  let sp = Telemetry.span_begin ~cat:"fft" "fft.2d" in
  transform_lines ?pool ?scratch dir ~len:nx ~count:ny ~stride:1
    ~line_start:(fun y -> y * nx) v;
  transform_lines ?pool ?scratch dir ~len:ny ~count:nx ~stride:nx
    ~line_start:(fun x -> x) v;
  Telemetry.span_end sp

let transform_3d ?pool ?scratch dir ~nx ~ny ~nz v =
  check_size "Fftnd.transform_3d" (nx * ny * nz) v;
  check_axis "Fftnd.transform_3d" nx;
  check_axis "Fftnd.transform_3d" ny;
  check_axis "Fftnd.transform_3d" nz;
  let sp = Telemetry.span_begin ~cat:"fft" "fft.3d" in
  transform_lines ?pool ?scratch dir ~len:nx ~count:(ny * nz) ~stride:1
    ~line_start:(fun k -> k * nx) v;
  transform_lines ?pool ?scratch dir ~len:ny ~count:(nx * nz) ~stride:nx
    ~line_start:(fun k ->
      let x = k mod nx and z = k / nx in
      (z * ny * nx) + x)
    v;
  transform_lines ?pool ?scratch dir ~len:nz ~count:(nx * ny)
    ~stride:(nx * ny) ~line_start:(fun k -> k) v;
  Telemetry.span_end sp

(* {2 Pruned transforms around the centred crop}

   The n-point centred crop on a g-point axis reads grid indices
   wrap(i - n/2), i < n: the two ranges [0, n - n/2) and [g - n/2, g).
   [kept ~g ~n k] enumerates them in that order. *)
let kept ~g ~n =
  let a = n - (n / 2) in
  fun k -> if k < a then k else k + (g - n)

let check_crop name ~dims ~g ~n v =
  if dims < 2 || dims > 3 then invalid_arg (name ^ ": dims must be 2 or 3");
  if n < 1 || n > g then invalid_arg (name ^ ": need 1 <= n <= g");
  check_size name (if dims = 2 then g * g else g * g * g) v;
  check_axis name g

(* Adjoint side: every line of the first axis, then only the lines that
   end on indices the crop reads. Each transformed line is the same line
   the full transform computes, so every cropped index is bit-identical;
   indices outside the crop are left partially transformed. *)
let transform_cropped ?pool ?scratch dir ~dims ~g ~n v =
  check_crop "Fftnd.transform_cropped" ~dims ~g ~n v;
  let sp = Telemetry.span_begin ~cat:"fft" "fft.cropped" in
  let kept = kept ~g ~n in
  let pass = transform_lines ?pool ?scratch dir ~len:g in
  if dims = 2 then begin
    pass ~count:g ~stride:1 ~line_start:(fun y -> y * g) v;
    pass ~count:n ~stride:g ~line_start:kept v
  end
  else begin
    let gg = g * g in
    pass ~count:gg ~stride:1 ~line_start:(fun k -> k * g) v;
    pass ~count:(g * n) ~stride:g
      ~line_start:(fun k -> ((k / n) * gg) + kept (k mod n))
      v;
    pass ~count:(n * n) ~stride:gg
      ~line_start:(fun k -> (kept (k / n) * g) + kept (k mod n))
      v
  end;
  Telemetry.span_end sp

(* Forward side, after a centred pad that leaves every other index zero:
   lines that are all zero when their pass starts are skipped (their
   transform is +0.0 everywhere, which they already hold), so the whole
   result is bit-identical to the full transform. *)
let transform_padded ?pool ?scratch dir ~dims ~g ~n v =
  check_crop "Fftnd.transform_padded" ~dims ~g ~n v;
  let sp = Telemetry.span_begin ~cat:"fft" "fft.padded" in
  let kept = kept ~g ~n in
  let pass = transform_lines ?pool ?scratch dir ~len:g in
  if dims = 2 then begin
    pass ~count:n ~stride:1 ~line_start:(fun k -> kept k * g) v;
    pass ~count:g ~stride:g ~line_start:(fun x -> x) v
  end
  else begin
    let gg = g * g in
    pass ~count:(n * n) ~stride:1
      ~line_start:(fun k -> ((kept (k / n) * g) + kept (k mod n)) * g)
      v;
    pass ~count:(g * n) ~stride:g
      ~line_start:(fun k -> (kept (k / g) * gg) + (k mod g))
      v;
    pass ~count:gg ~stride:gg ~line_start:(fun k -> k) v
  end;
  Telemetry.span_end sp

let transformed_2d ?pool dir ~nx ~ny v =
  let c = Cvec.copy v in
  transform_2d ?pool dir ~nx ~ny c;
  c

let fftshift_2d ~nx ~ny v =
  check_size "Fftnd.fftshift_2d" (nx * ny) v;
  let out = Cvec.create (nx * ny) in
  for y = 0 to ny - 1 do
    for x = 0 to nx - 1 do
      let x' = (x + (nx / 2)) mod nx and y' = (y + (ny / 2)) mod ny in
      Cvec.set out ((y' * nx) + x') (Cvec.get v ((y * nx) + x))
    done
  done;
  out

let flop_estimate_2d ~nx ~ny =
  let n = float_of_int (nx * ny) in
  5.0 *. n *. (log n /. log 2.0)
