module Cvec = Numerics.Cvec
module Wt = Numerics.Weight_table

(* A shard of a region partition: the plan's entries whose target grid
   cell lies in the contiguous row band [row_lo, row_hi) — a "row" being
   a run of [g] consecutive flattened cells (a y-row in 2D, a (z,y)-row
   in 3D). Entries are stored in the plan's own (sample, window-point)
   order, so replaying a shard accumulates onto each owned cell in
   exactly the serial order. *)
type shard = {
  row_lo : int;
  row_hi : int;
  e_smp : int array;
  e_idx : int array;
  e_wgt : float array;
}

type partition = {
  requested : int;
  p_rows : int;
  shards : shard array;
}

type t = {
  dims : int;
  m : int;
  g : int;
  w : int;
  points : int;
  idx : int array;
  wgt : float array;
  pmutex : Mutex.t;
  mutable part : partition option;
}

let dims t = t.dims
let length t = t.m
let grid t = t.g
let points_per_sample t = t.points

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)
let grid_length t = pow t.g t.dims

let memory_words t = (2 * t.m * t.points) + 8

let add_stats = Gridding_serial.add_grid_stats

(* Same-module hot-path primitives; see {!Gridding_serial} for the
   [-opaque] / cross-module-inlining rationale. *)

module A1 = Bigarray.Array1

let[@inline] get_re (v : Cvec.t) k = A1.unsafe_get v (2 * k)
let[@inline] get_im (v : Cvec.t) k = A1.unsafe_get v ((2 * k) + 1)

let[@inline] set_parts (v : Cvec.t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j re;
  A1.unsafe_set v (j + 1) im

let[@inline] acc_parts (v : Cvec.t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j (A1.unsafe_get v j +. re);
  A1.unsafe_set v (j + 1) (A1.unsafe_get v (j + 1) +. im)

let[@inline] window_start w u =
  int_of_float (Float.floor (u +. (float_of_int w /. 2.0))) - w + 1

let[@inline] wrap g k =
  let r = k mod g in
  if r < 0 then r + g else r

let[@inline] lut tbl tlen lf d =
  let a = int_of_float (Float.round (Float.abs d *. lf)) in
  if a >= tlen then 0.0 else Array.unsafe_get tbl a

(* Compilation enumerates each sample's interpolation window in exactly the
   order the serial engine spreads it (y-outer then x, z-outer in 3D) and
   records the flattened grid index and the finished scalar weight of every
   window point. Replay then re-walks the arrays in that order, so the
   accumulation order onto any given grid cell — and therefore the floating
   point result — is bit-identical to the serial and slice engines.

   Stats: compilation charges the select/eval cost (the decomposition: the
   caller-supplied [select_checks] plus one [window_evals] per table lookup
   actually performed); replay charges only the streaming cost
   ([samples_processed] and [grid_accumulates]). Re-running a transform
   from a compiled plan therefore leaves the decomposition counters
   untouched — the property the CG amortization tests pin down. *)

let compile_2d ?stats ?(select_checks = 0) ~table ~g ~gx ~gy () =
  let w = Wt.width table in
  let m = Array.length gx in
  if Array.length gy <> m then
    invalid_arg "Sample_plan.compile_2d: coords length mismatch";
  let tbl = Wt.data table and lf = float_of_int (Wt.oversampling table) in
  let tlen = Array.length tbl in
  let points = w * w in
  let idx = Array.make (m * points) 0 in
  let wgt = Array.make (m * points) 0.0 in
  for j = 0 to m - 1 do
    let uy = Array.unsafe_get gy j and ux = Array.unsafe_get gx j in
    let sy = window_start w uy and sx = window_start w ux in
    let base = j * points in
    for iy = 0 to w - 1 do
      let kyu = sy + iy in
      let ky = wrap g kyu in
      let wy = lut tbl tlen lf (float_of_int kyu -. uy) in
      let row = ky * g in
      let rbase = base + (iy * w) in
      for ix = 0 to w - 1 do
        let kxu = sx + ix in
        let kx = wrap g kxu in
        let wx = lut tbl tlen lf (float_of_int kxu -. ux) in
        Array.unsafe_set idx (rbase + ix) (row + kx);
        Array.unsafe_set wgt (rbase + ix) (wx *. wy)
      done
    done
  done;
  add_stats stats ~samples:0 ~checks:select_checks
    ~evals:((m * w) + (m * w * w))
    ~accums:0;
  { dims = 2; m; g; w; points; idx; wgt; pmutex = Mutex.create (); part = None }

let compile_3d ?stats ?(select_checks = 0) ~table ~g ~gx ~gy ~gz () =
  let w = Wt.width table in
  let m = Array.length gx in
  if Array.length gy <> m || Array.length gz <> m then
    invalid_arg "Sample_plan.compile_3d: coords length mismatch";
  let tbl = Wt.data table and lf = float_of_int (Wt.oversampling table) in
  let tlen = Array.length tbl in
  let points = w * w * w in
  let idx = Array.make (m * points) 0 in
  let wgt = Array.make (m * points) 0.0 in
  for j = 0 to m - 1 do
    let uz = Array.unsafe_get gz j
    and uy = Array.unsafe_get gy j
    and ux = Array.unsafe_get gx j in
    let sz = window_start w uz
    and sy = window_start w uy
    and sx = window_start w ux in
    let base = j * points in
    for iz = 0 to w - 1 do
      let kzu = sz + iz in
      let kz = wrap g kzu in
      let wz = lut tbl tlen lf (float_of_int kzu -. uz) in
      for iy = 0 to w - 1 do
        let kyu = sy + iy in
        let ky = wrap g kyu in
        let wyz = wz *. lut tbl tlen lf (float_of_int kyu -. uy) in
        let plane = ((kz * g) + ky) * g in
        let rbase = base + (((iz * w) + iy) * w) in
        for ix = 0 to w - 1 do
          let kxu = sx + ix in
          let kx = wrap g kxu in
          let wx = lut tbl tlen lf (float_of_int kxu -. ux) in
          Array.unsafe_set idx (rbase + ix) (plane + kx);
          Array.unsafe_set wgt (rbase + ix) (wyz *. wx)
        done
      done
    done
  done;
  add_stats stats ~samples:0 ~checks:select_checks
    ~evals:((m * w) + (m * w * w) + (m * w * w * w))
    ~accums:0;
  { dims = 3; m; g; w; points; idx; wgt; pmutex = Mutex.create (); part = None }

(* [simd] selects the C kernels from {!Simd} when dispatch is active;
   they mirror these loops operation for operation (128-bit (re,im)
   lanes, broadcast real weight, no FMA contraction), so the result is
   the same within the documented 4-ULP contract — bitwise in practice
   on the spread path, whose op order is preserved exactly. *)
let[@inline] use_simd simd = simd && Simd.enabled ()

let replay_spread ~simd t values out =
  if use_simd simd then Simd.spread values t.idx t.wgt out
  else begin
    let p = t.points in
    let idx = t.idx and wgt = t.wgt in
    for j = 0 to t.m - 1 do
      let vr = get_re values j and vi = get_im values j in
      let base = j * p in
      for i = 0 to p - 1 do
        let k = Array.unsafe_get idx (base + i) in
        let weight = Array.unsafe_get wgt (base + i) in
        acc_parts out k (weight *. vr) (weight *. vi)
      done
    done
  end

let gather_range ~simd t grid out ~lo ~hi =
  if use_simd simd then Simd.gather grid t.idx t.wgt out lo hi
  else begin
    let p = t.points in
    let idx = t.idx and wgt = t.wgt in
    for j = lo to hi - 1 do
      let base = j * p in
      let acc_re = ref 0.0 and acc_im = ref 0.0 in
      for i = 0 to p - 1 do
        let k = Array.unsafe_get idx (base + i) in
        let weight = Array.unsafe_get wgt (base + i) in
        acc_re := !acc_re +. (weight *. get_re grid k);
        acc_im := !acc_im +. (weight *. get_im grid k)
      done;
      set_parts out j !acc_re !acc_im
    done
  end

(* ------------------------------------------------------------------ *)
(* Region-sharded ownership partition.

   Adjoint replay is a scatter: distinct samples hit overlapping grid
   cells, so sample-range sharding would race. Instead the *grid* is
   sharded: each shard exclusively owns a contiguous band of grid rows
   (row = flattened index / g: a y-row in 2D, a (z,y)-row in 3D), and the
   plan's (sample, window-point) entry stream is re-bucketed once so each
   shard holds exactly the entries landing in its band, still in plan
   order. Every grid cell then has exactly one writer — no atomics, no
   per-domain grid copies to merge — and each cell receives its
   contributions in serial order, so the parallel result is bit-identical
   to serial replay for any shard count.

   Band cuts are chosen by greedy entry-mass balancing over a per-row
   entry histogram (cuFINUFFT-style load-balanced binning): dense
   trajectory regions get narrow bands, empty regions are absorbed into
   wide ones. Each shard is guaranteed at least one row; the shard count
   is clamped to the row count. *)

let build_partition t ~requested =
  let sp = Gridding_stats.grid_span "plan.partition" in
  let g = t.g in
  let rows = pow g (t.dims - 1) in
  let n = max 1 (min requested rows) in
  let total = t.m * t.points in
  let idx = t.idx and wgt = t.wgt in
  let hist = Array.make rows 0 in
  for e = 0 to total - 1 do
    let r = Array.unsafe_get idx e / g in
    Array.unsafe_set hist r (Array.unsafe_get hist r + 1)
  done;
  (* Greedy cuts: shard s owns rows [cuts.(s), cuts.(s+1)). Advance each
     cut until accumulated entry mass reaches the s-th balanced target,
     but never past [rows - remaining_shards] so every later shard keeps
     at least one row. *)
  let cuts = Array.make (n + 1) 0 in
  cuts.(n) <- rows;
  let target = float_of_int total /. float_of_int n in
  let row = ref 0 and acc = ref 0 in
  for s = 0 to n - 2 do
    cuts.(s) <- !row;
    let goal = float_of_int (s + 1) *. target in
    let limit = rows - (n - 1 - s) in
    acc := !acc + hist.(!row);
    incr row;
    while !row < limit && float_of_int !acc < goal do
      acc := !acc + hist.(!row);
      incr row
    done
  done;
  cuts.(n - 1) <- !row;
  let owner = Array.make rows 0 in
  let counts = Array.make n 0 in
  for s = 0 to n - 1 do
    let c = ref 0 in
    for r = cuts.(s) to cuts.(s + 1) - 1 do
      Array.unsafe_set owner r s;
      c := !c + Array.unsafe_get hist r
    done;
    counts.(s) <- !c
  done;
  let shards =
    Array.init n (fun s ->
        { row_lo = cuts.(s);
          row_hi = cuts.(s + 1);
          e_smp = Array.make counts.(s) 0;
          e_idx = Array.make counts.(s) 0;
          e_wgt = Array.make counts.(s) 0.0 })
  in
  (* Bucket the entry stream in plan order, so each shard's entries stay
     sample-monotonic (the bit-identity invariant). *)
  let fill = Array.make n 0 in
  let p = t.points in
  for j = 0 to t.m - 1 do
    let base = j * p in
    for i = 0 to p - 1 do
      let e = base + i in
      let k = Array.unsafe_get idx e in
      let s = Array.unsafe_get owner (k / g) in
      let sh = Array.unsafe_get shards s in
      let f = Array.unsafe_get fill s in
      Array.unsafe_set sh.e_smp f j;
      Array.unsafe_set sh.e_idx f k;
      Array.unsafe_set sh.e_wgt f (Array.unsafe_get wgt e);
      Array.unsafe_set fill s (f + 1)
    done
  done;
  Gridding_stats.end_span sp;
  { requested; p_rows = rows; shards }

(* The partition is built lazily on first parallel spread and cached in
   the plan (single slot, keyed on the requested shard count). All access
   goes through [pmutex]: plans are shared across domains by the plan
   cache, and an unsynchronised mutable read of [part] would race with a
   concurrent build under the OCaml memory model. *)
let partition t ~shards =
  if shards < 1 then invalid_arg "Sample_plan.partition: shards < 1";
  Mutex.lock t.pmutex;
  let p =
    match t.part with
    | Some p when p.requested = shards -> p
    | _ ->
        let p = build_partition t ~requested:shards in
        t.part <- Some p;
        p
  in
  Mutex.unlock t.pmutex;
  p

let partition_requested p = p.requested
let partition_rows p = p.p_rows
let partition_shards p = Array.length p.shards
let shard_rows p s = (p.shards.(s).row_lo, p.shards.(s).row_hi)
let shard_length p s = Array.length p.shards.(s).e_idx

let shard_entry p s e =
  let sh = p.shards.(s) in
  (sh.e_smp.(e), sh.e_idx.(e), sh.e_wgt.(e))

let replay_shard ~simd sh values out =
  if use_simd simd then Simd.spread_shard values sh.e_smp sh.e_idx sh.e_wgt out
  else begin
    let n = Array.length sh.e_idx in
    let e_smp = sh.e_smp and e_idx = sh.e_idx and e_wgt = sh.e_wgt in
    for e = 0 to n - 1 do
      let j = Array.unsafe_get e_smp e in
      let k = Array.unsafe_get e_idx e in
      let weight = Array.unsafe_get e_wgt e in
      acc_parts out k (weight *. get_re values j) (weight *. get_im values j)
    done
  end

let[@inline] pool_is_parallel pool =
  Runtime.Pool.size pool > 1 && not (Runtime.Pool.is_shut_down pool)

let spread_parallel_into ?stats ?pool ?(simd = false) t values out =
  if Cvec.length values <> t.m then
    invalid_arg "Sample_plan.spread_parallel_into: values length mismatch";
  if Cvec.length out <> grid_length t then
    invalid_arg "Sample_plan.spread_parallel_into: grid size mismatch";
  Cvec.fill_zero out;
  (match pool with
  | Some p when pool_is_parallel p ->
      let part = partition t ~shards:(Runtime.Pool.size p) in
      (* Each shard is one coarse work unit (entry-mass balanced at build
         time), so per-shard dispatch is the right granularity. *)
      Runtime.Pool.parallel_for ~chunk:1 p ~start:0
        ~stop:(Array.length part.shards) (fun s ->
          replay_shard ~simd (Array.unsafe_get part.shards s) values out)
  | _ -> replay_spread ~simd t values out);
  add_stats stats ~samples:t.m ~checks:0 ~evals:0 ~accums:(t.m * t.points)

let spread_parallel ?stats ?pool ?simd t values =
  let out = Cvec.create (grid_length t) in
  spread_parallel_into ?stats ?pool ?simd t values out;
  out

let gather_parallel ?stats ?pool ?(simd = false) t grid =
  if Cvec.length grid <> grid_length t then
    invalid_arg "Sample_plan.gather_parallel: grid size mismatch";
  let out = Cvec.create t.m in
  (match pool with
  | Some p when pool_is_parallel p ->
      (* Gather writes one private output slot per sample — sample-range
         sharding is race-free, and per-sample accumulation order is the
         serial order, so any chunking is bit-identical. *)
      let chunk =
        Runtime.Pool.adaptive_chunk p ~items:t.m ~work_per_item:(2 * t.points)
      in
      Runtime.Pool.parallel_for_ranges ~chunk p ~start:0 ~stop:t.m
        (fun ~lo ~hi -> gather_range ~simd t grid out ~lo ~hi)
  | _ -> gather_range ~simd t grid out ~lo:0 ~hi:t.m);
  add_stats stats ~samples:t.m ~checks:0 ~evals:0 ~accums:0;
  out
