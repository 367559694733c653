(* Reference images from the serial backend, computed outside timing.

   The reference runs the serial gridding engine directly — no compiled
   sample plan, no plan cache, no pool, no SIMD — at the geometry the
   reconstruction service uses for a request without a tolerance
   (w = 6, sigma = 2, l = 512, Kaiser-Bessel), so it shares no fast-path
   code with what it checks. *)

module Op = Nufft.Operator
module Plan = Nufft.Plan
module Sample = Nufft.Sample
module Svc = Pipeline.Recon_service
module Cg = Imaging.Cg

let serial_op (p : Inputs.problem) =
  let ctx = Op.context ~w:6 ~sigma:Inputs.sigma ~l:512 ~n:p.n ~coords:p.coords () in
  let plan =
    Plan.make ~kernel:ctx.Op.kernel ~w:ctx.Op.w ~sigma:ctx.Op.sigma
      ~l:ctx.Op.l ~n:p.n ()
  in
  Op.of_plan ~name:"serial" ~compile:false plan ~coords:p.coords

(* The image [Recon_service.submit] must return for this request. *)
let reference ?(method_ = Svc.Adjoint) (p : Inputs.problem) values =
  let op = serial_op p in
  let samples = Sample.with_values p.coords values in
  match method_ with
  | Svc.Adjoint -> (
      match Imaging.Recon.reconstruct_op ?density:p.density op samples with
      | Ok image -> image
      | Error e -> failwith ("oracle: " ^ Imaging.Recon.error_message e))
  | Svc.Cg iters ->
      let rhs = Cg.normal_equations_rhs_op ?weights:p.density op samples in
      (Cg.solve ~max_iterations:iters
         ~apply:(Cg.normal_map ?weights:p.density op)
         rhs)
        .Cg.solution
