(** Compiled sample plans: the slice-and-dice decomposition done once.

    A compiled plan is the fixed part of gridding a particular trajectory —
    for every sample, the flattened grid indices of its [w^dims]
    interpolation-window points and the finished scalar weight at each —
    precomputed into two flat arrays. {!spread_parallel} and
    {!gather_parallel} then replay those arrays with a pure streaming
    multiply-accumulate loop: no boundary checks, no window evaluation,
    no tile arithmetic.

    Iterative reconstruction (CG, Toeplitz kernel construction) applies the
    same operator on the same coordinates tens of times; compiling once and
    replaying moves the whole decomposition cost out of the iteration loop.
    The replay enumeration order matches the serial engine exactly, so
    replayed transforms are bit-identical to the serial (and slice) engine
    results.

    Stats accounting splits along the same line: compilation charges
    [boundary_checks] (the caller-supplied select cost of the engine whose
    decomposition is being amortised) and [window_evals]; replay charges
    only [samples_processed] and [grid_accumulates]. The decomposition
    counters of a stats record therefore advance exactly once per compiled
    plan no matter how many times it is replayed. *)

type t

val dims : t -> int
val length : t -> int
(** Number of samples the plan was compiled for. *)

val grid : t -> int
(** Oversampled grid size [g] per dimension. *)

val points_per_sample : t -> int
(** [w^dims]: window points recorded per sample. *)

val grid_length : t -> int
(** [g^dims]: flattened length of the grid {!spread_parallel} produces. *)

val memory_words : t -> int
(** Approximate footprint of the compiled arrays, in words. *)

val compile_2d :
  ?stats:Gridding_stats.t ->
  ?select_checks:int ->
  table:Numerics.Weight_table.t ->
  g:int ->
  gx:float array ->
  gy:float array ->
  unit ->
  t
(** Compile the decomposition of a 2D trajectory. [select_checks] is the
    number of boundary checks the amortised engine would have performed for
    one gridding pass (e.g. [t^2 * m] for a slice engine with tile [t]);
    it is charged to [stats] here, once. *)

val compile_3d :
  ?stats:Gridding_stats.t ->
  ?select_checks:int ->
  table:Numerics.Weight_table.t ->
  g:int ->
  gx:float array ->
  gy:float array ->
  gz:float array ->
  unit ->
  t

(** {1 Region-sharded parallel replay}

    Adjoint replay is a scatter, so sample-range sharding would race on
    shared grid cells. {!partition} instead shards the {e grid}: the
    [g^(dims-1)] grid rows (a row is [g] consecutive flattened cells — a
    y-row in 2D, a (z,y)-row in 3D) are cut into contiguous bands, one
    per shard, with cuts placed by greedy entry-mass balancing over a
    per-row histogram. Each shard holds exactly the plan entries landing
    in its band, in plan (sample, window-point) order; every grid cell
    has one exclusive writer and receives its contributions in serial
    order, so parallel replay is bit-identical to pool-less replay for
    every shard count — no atomics, no privatized grids to merge.

    The partition is built once per (plan, shard count) and cached inside
    the plan under a mutex, so repeated parallel replays (CG iterations,
    service requests on a cached plan) pay the bucketing pass once. *)

type partition
(** A region-ownership decomposition of a plan's entry stream. *)

val partition : t -> shards:int -> partition
(** [partition t ~shards] returns the cached partition for [shards]
    (clamped to the row count), building and caching it on first use.
    Thread-safe: callers on different domains sharing one plan get the
    same partition. Raises [Invalid_argument] if [shards < 1]. *)

val partition_requested : partition -> int
(** The shard count the partition was requested with (pre-clamping). *)

val partition_shards : partition -> int
(** Actual shard count: [min requested rows], at least 1. *)

val partition_rows : partition -> int
(** Total grid rows partitioned: [g^(dims-1)]. *)

val shard_rows : partition -> int -> int * int
(** [shard_rows p s] is shard [s]'s owned row band [(lo, hi)), with
    [hi] exclusive. Bands tile [0, rows) in order. *)

val shard_length : partition -> int -> int
(** Number of plan entries bucketed into shard [s]; shard lengths sum to
    [length t * points_per_sample t]. *)

val shard_entry : partition -> int -> int -> int * int * float
(** [shard_entry p s e] is entry [e] of shard [s] as
    [(sample, flat grid index, weight)] — introspection for the
    coverage/ownership property tests. *)

val spread_parallel :
  ?stats:Gridding_stats.t ->
  ?pool:Runtime.Pool.t ->
  ?simd:bool ->
  t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [spread_parallel ?pool t values] grids [values] (length {!length})
    onto a fresh [g^dims] grid by replaying the compiled arrays.
    Bit-identical to {!Gridding_serial} on the same inputs.

    Without a pool (or with a pool of size 1, or a shut-down pool) the
    whole entry stream replays on the caller's domain, without building
    a partition. With a parallel pool the shards of the cached partition
    replay across its domains, bit-identically for every pool size.

    [simd] (default [false]) replays through the {!Simd} C kernels
    ({!Simd.spread}, or {!Simd.spread_shard} per shard) when SIMD
    dispatch is active; they preserve the scalar op order (documented
    contract: 4 ULP) and are a no-op when [Simd.enabled ()] is false. *)

val spread_parallel_into :
  ?stats:Gridding_stats.t ->
  ?pool:Runtime.Pool.t ->
  ?simd:bool ->
  t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t ->
  unit
(** {!spread_parallel} into a caller-provided [g^dims] buffer ([out] is
    zeroed first), so a serving loop can reuse one pooled oversampled
    grid across requests instead of allocating per transform. *)

val gather_parallel :
  ?stats:Gridding_stats.t ->
  ?pool:Runtime.Pool.t ->
  ?simd:bool ->
  t ->
  Numerics.Cvec.t ->
  Numerics.Cvec.t
(** [gather_parallel ?pool t grid] interpolates the [g^dims] grid at the
    compiled sample locations (the forward-transform regridding step);
    adjoint of {!spread_parallel} by construction, since both replay the
    same weights. With a parallel pool the sample range is chunked
    across it ({!Runtime.Pool.adaptive_chunk} granularity); each sample
    owns its output slot, so this is race-free and bit-identical to the
    pool-less replay. [simd] as in {!spread_parallel} (per-sample
    accumulation order preserved; 4-ULP contract). *)
