let resolve ?pool:_ ?tol:_ ?family:_ ~default:_ ~n:_ ~coords:_ () =
  Operator.auto_backend

let reset () = ()
