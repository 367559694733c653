module Cvec = Numerics.Cvec

(* Same-module element accessors over the Bigarray externals: the dev
   profile compiles with [-opaque] (no cross-module inlining), so calling
   [Cvec.unsafe_get_re] etc. per butterfly would box a float each. These
   compile to loads/stores in every profile. *)
module A1 = Bigarray.Array1

let[@inline] get_re (v : Cvec.t) k = A1.unsafe_get v (2 * k)
let[@inline] get_im (v : Cvec.t) k = A1.unsafe_get v ((2 * k) + 1)

let[@inline] set_parts (v : Cvec.t) k re im =
  let j = 2 * k in
  A1.unsafe_set v j re;
  A1.unsafe_set v (j + 1) im

let rec strip f n = if n mod f = 0 then strip f (n / f) else n

let is_smooth n = n > 0 && strip 5 (strip 3 (strip 2 n)) = 1

let next_smooth n =
  if n < 1 then invalid_arg "Fft1d.next_smooth";
  let rec go m = if is_smooth m then m else go (m + 1) in
  go n

(* {2 Plans}

   Every line runs one algorithm, decimation in time with the radix-3/5
   factors outermost: a line of length n = p * m (p = 2^a, m = 3^b 5^c)
   is permuted in place so that the m decimated sub-sequences of length p
   sit back to back, those m sub-lines run through radix-2 butterflies,
   and radix-3/5 passes then combine blocks of length L into blocks of
   length rL until the whole line is done. A 640-point line is one
   radix-5 pass over five 128-point sub-lines; a power of two is one
   sub-line and no passes.

   The permutation is the mixed-radix digit reversal: with radices
   r1 (outermost) .. rk, element i of a length-(r1 N') problem goes to
   block (i mod r1) of length N' at the recursive position of i / r1,
   down to the bit-reversed position inside its radix-2 sub-line.
   It is applied in place by following its cycles, so a line needs no
   second buffer. A power of two has no cycles: its bit reversal is the
   radix-2 kernel's own swap loop, driven by the sub-line table.

   The plan is flat int/float arrays so the same tables drive the OCaml
   passes below and {!Simd.fft_mixed_batch}, which mirrors them
   operation for operation. *)

type plan = {
  rev : int array;
      (* sub-line table, length p: the bit reversal for a power of two,
         else the identity (the cycles already bit-reverse) *)
  tw : float array;  (* interleaved e^{sgn 2 pi i j / p}, j < p / 2 *)
  perm : int array;
      (* permutation cycles, each as its length then its positions (read
         from the next position in the cycle); fixed points omitted *)
  stages : int array;
      (* (radix, span L, twiddle offset in [stw]) per pass, innermost
         first *)
  stw : float array;
      (* k3 = sgn sin(2pi/3), cos(2pi/5), cos(4pi/5), sgn sin(2pi/5),
         sgn sin(4pi/5), then per pass the interleaved w_{rL}^{pq} for
         1 <= p < r, q < L at offset + 2 ((p-1) L + q): consecutive q
         are adjacent, so the C kernel loads two twiddles at once *)
}

(* e^{sgn 2 pi i k / n}, with [k] reduced mod [n] so the angle stays in
   [0, 2 pi) and accurate. *)
let[@inline] angle sgn k n =
  float_of_int sgn *. 2.0 *. Float.pi *. float_of_int (k mod n)
  /. float_of_int n

let build_twiddles n sgn =
  let t = Array.make n 0.0 in
  for j = 0 to (n / 2) - 1 do
    let theta = angle sgn j n in
    t.(2 * j) <- cos theta;
    t.((2 * j) + 1) <- sin theta
  done;
  t

let build_bitrev n =
  let bits =
    let rec go b m = if m = 1 then b else go (b + 1) (m / 2) in
    go 0 n
  in
  Array.init n (fun i ->
      let r = ref 0 and x = ref i in
      for _ = 1 to bits do
        r := (!r lsl 1) lor (!x land 1);
        x := !x lsr 1
      done;
      !r)

let rec factors m =
  if m mod 5 = 0 then 5 :: factors (m / 5)
  else if m mod 3 = 0 then 3 :: factors (m / 3)
  else []

(* The digit-reversal cycles of a length-n line with radix-3/5 factors
   [radices] (outermost first) over 2^a-point sub-lines whose bit
   reversal is [rev]. *)
let digit_reversal_cycles n radices rev =
  (* Digit-reversed position of input index i, including the bit
     reversal inside its radix-2 sub-line. *)
  let rec pos i len = function
    | [] -> rev.(i)
    | r :: rest ->
        let sub = len / r in
        ((i mod r) * sub) + pos (i / r) sub rest
  in
  (* Position p is pulled from [src.(p)]. *)
  let src = Array.make n 0 in
  for i = 0 to n - 1 do
    src.(pos i n radices) <- i
  done;
  let seen = Array.make n false in
  let perm = ref [] in
  for p0 = 0 to n - 1 do
    if (not seen.(p0)) && src.(p0) <> p0 then begin
      let cycle = ref [] and p = ref p0 in
      while not seen.(!p) do
        seen.(!p) <- true;
        cycle := !p :: !cycle;
        p := src.(!p)
      done;
      perm := (List.length !cycle :: List.rev !cycle) :: !perm
    end
  done;
  Array.of_list (List.concat (List.rev !perm))

let build_plan n sgn =
  let pow2 = n / strip 2 n in
  let radices = factors (n / pow2) in
  let bitrev = build_bitrev pow2 in
  let rev, perm =
    if radices = [] then (bitrev, [||])
    else (Array.init pow2 Fun.id, digit_reversal_cycles n radices bitrev)
  in
  let s = float_of_int sgn in
  let consts =
    [| s *. sin (2.0 *. Float.pi /. 3.0);
       cos (2.0 *. Float.pi /. 5.0);
       cos (4.0 *. Float.pi /. 5.0);
       s *. sin (2.0 *. Float.pi /. 5.0);
       s *. sin (4.0 *. Float.pi /. 5.0) |]
  in
  let stages = ref [] and tables = ref [ consts ] in
  let span = ref pow2 and toff = ref (Array.length consts) in
  List.iter
    (fun r ->
      let l = !span in
      let t = Array.make (2 * l * (r - 1)) 0.0 in
      for q = 0 to l - 1 do
        for p = 1 to r - 1 do
          let theta = angle sgn (p * q) (r * l) in
          let k = 2 * (((p - 1) * l) + q) in
          t.(k) <- cos theta;
          t.(k + 1) <- sin theta
        done
      done;
      stages := !stages @ [ r; l; !toff ];
      tables := t :: !tables;
      toff := !toff + Array.length t;
      span := r * l)
    (List.rev radices);
  {
    rev;
    tw = build_twiddles pow2 sgn;
    perm;
    stages = Array.of_list !stages;
    stw = Array.concat (List.rev !tables);
  }

(* The plan cache, keyed by (n, sign): one table per direction ([fwd]
   for sign -1, [inv] for sign +1). Plans are tiny relative to the data
   and the cache makes repeated transforms of the same size (2D
   row/column passes, iterative reconstruction) allocation-free. A mutex
   guards the hashtables so concurrent line transforms from a domain pool
   cannot corrupt them; a plan is immutable once published.

   The build runs *outside* the lock: under the domain pool the first large
   transform would otherwise serialize every worker behind one plan
   build. Workers that miss concurrently each build a candidate plan, then
   re-check under the lock and all adopt whichever plan was inserted
   first (plans are deterministic, so the losers' work is identical and
   simply dropped).

   The hit path allocates nothing: int-keyed tables looked up with
   [Hashtbl.find] under an exception match, so a warm serving loop pays
   no per-line closure, tuple or [Some] box. *)
let cache_mutex = Mutex.create ()
let fwd_plans : (int, plan) Hashtbl.t = Hashtbl.create 16
let inv_plans : (int, plan) Hashtbl.t = Hashtbl.create 16

let plan n sgn =
  let cache = if sgn < 0 then fwd_plans else inv_plans in
  Mutex.lock cache_mutex;
  match Hashtbl.find cache n with
  | t ->
      Mutex.unlock cache_mutex;
      t
  | exception Not_found ->
      Mutex.unlock cache_mutex;
      let candidate = build_plan n sgn in
      Mutex.lock cache_mutex;
      let adopted =
        match Hashtbl.find_opt cache n with
        | Some winner -> winner
        | None ->
            Hashtbl.add cache n candidate;
            candidate
      in
      Mutex.unlock cache_mutex;
      adopted

(* One 2^a-point (sub-)line at complex offset [off] of a larger buffer:
   the swaps of [rev] (a no-op for the identity table), then the radix-2
   butterflies over the twiddles [tw]. *)
let radix2_at v rev tw ~off ~n =
  for i = 0 to n - 1 do
    let j = Array.unsafe_get rev i in
    if j > i then begin
      let a = off + i and b = off + j in
      let tr = get_re v a and ti = get_im v a in
      set_parts v a (get_re v b) (get_im v b);
      set_parts v b tr ti
    end
  done;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let step = n / !len in
    let i = ref 0 in
    while !i < n do
      for j = 0 to half - 1 do
        let wi = j * step in
        let wr = Array.unsafe_get tw (2 * wi)
        and wim = Array.unsafe_get tw ((2 * wi) + 1) in
        let a = off + !i + j in
        let b = a + half in
        let br = get_re v b and bi = get_im v b in
        let tr = (wr *. br) -. (wim *. bi) in
        let ti = (wr *. bi) +. (wim *. br) in
        let ar = get_re v a and ai = get_im v a in
        set_parts v a (ar +. tr) (ai +. ti);
        set_parts v b (ar -. tr) (ai -. ti)
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let permute_at v perm ~off =
  let k = ref 0 in
  while !k < Array.length perm do
    let len = Array.unsafe_get perm !k in
    let c0 = !k + 1 in
    let first = off + Array.unsafe_get perm c0 in
    let hr = get_re v first and hi = get_im v first in
    for j = c0 to c0 + len - 2 do
      let dst = off + Array.unsafe_get perm j
      and src = off + Array.unsafe_get perm (j + 1) in
      set_parts v dst (get_re v src) (get_im v src)
    done;
    set_parts v (off + Array.unsafe_get perm (c0 + len - 1)) hr hi;
    k := c0 + len
  done

(* X_s = sum_p w_3^{ps} (w_{3L}^{pq} a_p) for the three points
   [i0, i0 + L, i0 + 2L] of each group. Every output starts from the
   untwiddled a_0, so an all-zero line stays +0.0 everywhere. *)
let radix3_pass v stw ~tw ~l ~off ~n =
  let k3 = Array.unsafe_get stw 0 in
  let base = ref off in
  while !base < off + n do
    for q = 0 to l - 1 do
      let i0 = !base + q in
      let i1 = i0 + l in
      let i2 = i1 + l in
      let t = tw + (2 * q) in
      let xr = get_re v i1 and xi = get_im v i1 in
      let wr = Array.unsafe_get stw t and wi = Array.unsafe_get stw (t + 1) in
      let a1r = (wr *. xr) -. (wi *. xi) and a1i = (wr *. xi) +. (wi *. xr) in
      let t = t + (2 * l) in
      let xr = get_re v i2 and xi = get_im v i2 in
      let wr = Array.unsafe_get stw t and wi = Array.unsafe_get stw (t + 1) in
      let a2r = (wr *. xr) -. (wi *. xi) and a2i = (wr *. xi) +. (wi *. xr) in
      let a0r = get_re v i0 and a0i = get_im v i0 in
      let tr = a1r +. a2r and ti = a1i +. a2i in
      let er = k3 *. (a1r -. a2r) and ei = k3 *. (a1i -. a2i) in
      let br = a0r -. (0.5 *. tr) and bi = a0i -. (0.5 *. ti) in
      set_parts v i0 (a0r +. tr) (a0i +. ti);
      set_parts v i1 (br -. ei) (bi +. er);
      set_parts v i2 (br +. ei) (bi -. er)
    done;
    base := !base + (3 * l)
  done

let radix5_pass v stw ~tw ~l ~off ~n =
  let c1 = Array.unsafe_get stw 1 and c2 = Array.unsafe_get stw 2 in
  let s1 = Array.unsafe_get stw 3 and s2 = Array.unsafe_get stw 4 in
  let base = ref off in
  while !base < off + n do
    for q = 0 to l - 1 do
      let i0 = !base + q in
      let i1 = i0 + l in
      let i2 = i1 + l in
      let i3 = i2 + l in
      let i4 = i3 + l in
      let t = tw + (2 * q) in
      let xr = get_re v i1 and xi = get_im v i1 in
      let wr = Array.unsafe_get stw t and wi = Array.unsafe_get stw (t + 1) in
      let a1r = (wr *. xr) -. (wi *. xi) and a1i = (wr *. xi) +. (wi *. xr) in
      let t = t + (2 * l) in
      let xr = get_re v i2 and xi = get_im v i2 in
      let wr = Array.unsafe_get stw t and wi = Array.unsafe_get stw (t + 1) in
      let a2r = (wr *. xr) -. (wi *. xi) and a2i = (wr *. xi) +. (wi *. xr) in
      let t = t + (2 * l) in
      let xr = get_re v i3 and xi = get_im v i3 in
      let wr = Array.unsafe_get stw t and wi = Array.unsafe_get stw (t + 1) in
      let a3r = (wr *. xr) -. (wi *. xi) and a3i = (wr *. xi) +. (wi *. xr) in
      let t = t + (2 * l) in
      let xr = get_re v i4 and xi = get_im v i4 in
      let wr = Array.unsafe_get stw t and wi = Array.unsafe_get stw (t + 1) in
      let a4r = (wr *. xr) -. (wi *. xi) and a4i = (wr *. xi) +. (wi *. xr) in
      let a0r = get_re v i0 and a0i = get_im v i0 in
      let t1r = a1r +. a4r and t1i = a1i +. a4i in
      let t2r = a2r +. a3r and t2i = a2i +. a3i in
      let t3r = a1r -. a4r and t3i = a1i -. a4i in
      let t4r = a2r -. a3r and t4i = a2i -. a3i in
      let b1r = a0r +. (c1 *. t1r) +. (c2 *. t2r)
      and b1i = a0i +. (c1 *. t1i) +. (c2 *. t2i) in
      let b2r = a0r +. (c2 *. t1r) +. (c1 *. t2r)
      and b2i = a0i +. (c2 *. t1i) +. (c1 *. t2i) in
      let e1r = (s1 *. t3r) +. (s2 *. t4r) and e1i = (s1 *. t3i) +. (s2 *. t4i) in
      let e2r = (s2 *. t3r) -. (s1 *. t4r) and e2i = (s2 *. t3i) -. (s1 *. t4i) in
      set_parts v i0 (a0r +. t1r +. t2r) (a0i +. t1i +. t2i);
      set_parts v i1 (b1r -. e1i) (b1i +. e1r);
      set_parts v i4 (b1r +. e1i) (b1i -. e1r);
      set_parts v i2 (b2r -. e2i) (b2i +. e2r);
      set_parts v i3 (b2r +. e2i) (b2i -. e2r)
    done;
    base := !base + (5 * l)
  done

(* [count] contiguous lines of length [n] (5-smooth, > 1), each in
   place: permute, radix-2 sub-lines, radix-3/5 passes — line by line, so
   each line stays cache-resident across its passes. With SIMD dispatch
   on, the whole batch is one {!Simd.fft_mixed_batch} call running the
   same passes. *)
let lines sgn v ~off ~count ~n =
  let pl = plan n sgn in
  if Simd.enabled () then
    Simd.fft_mixed_batch v pl.perm pl.stages pl.stw pl.rev pl.tw off count n
  else
    let p = Array.length pl.rev in
    for line = 0 to count - 1 do
      let off = off + (line * n) in
      permute_at v pl.perm ~off;
      if p > 1 then
        for s = 0 to (n / p) - 1 do
          radix2_at v pl.rev pl.tw ~off:(off + (s * p)) ~n:p
        done;
      for s = 0 to (Array.length pl.stages / 3) - 1 do
        let l = Array.unsafe_get pl.stages ((3 * s) + 1)
        and tw = Array.unsafe_get pl.stages ((3 * s) + 2) in
        if Array.unsafe_get pl.stages (3 * s) = 3 then
          radix3_pass v pl.stw ~tw ~l ~off ~n
        else radix5_pass v pl.stw ~tw ~l ~off ~n
      done
    done

let c_transforms = Telemetry.Counter.make "fft.1d_transforms"

let transform dir v =
  let n = Cvec.length v in
  if not (is_smooth n) then
    invalid_arg "Fft1d.transform: length must be 2^a * 3^b * 5^c";
  Telemetry.Counter.incr c_transforms;
  if n > 1 then lines (int_of_float (Dft.sign dir)) v ~off:0 ~count:1 ~n

let transform_batch dir v ~off ~count ~len =
  if not (is_smooth len) then
    invalid_arg "Fft1d.transform_batch: len must be 2^a * 3^b * 5^c";
  if count < 0 || off < 0 || off + (count * len) > Cvec.length v then
    invalid_arg "Fft1d.transform_batch: line range out of bounds";
  Telemetry.Counter.add c_transforms count;
  if len > 1 then lines (int_of_float (Dft.sign dir)) v ~off ~count ~n:len

let transformed dir v =
  let c = Cvec.copy v in
  transform dir c;
  c

let inverse_normalized v =
  let c = transformed Dft.Inverse v in
  Cvec.scale_inplace (1.0 /. float_of_int (Cvec.length v)) c;
  c

let flop_estimate n =
  let nf = float_of_int n in
  5.0 *. nf *. (log nf /. log 2.0)
