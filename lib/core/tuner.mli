(** Backend choice for [backend = "auto"]: a fixed rule, not a runtime
    race. Every request resolves to {!Operator.auto_backend}
    (["replay-simd"]), as cuFINUFFT ships a fixed default method per
    dimension. Kept as a module because the request-path benchmark calls
    it. *)

val resolve :
  ?pool:Runtime.Pool.t ->
  ?tol:float ->
  ?family:Numerics.Window.family ->
  default:string ->
  n:int ->
  coords:Sample.t ->
  unit ->
  string
(** {!Operator.auto_backend}, whatever the arguments: the problem shape,
    pool and [default] do not influence the choice. *)

val reset : unit -> unit
(** No-op: the static rule keeps no state. *)
