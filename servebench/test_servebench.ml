(* The benchmark's own test: every workload at small scale, plain and
   in the layer run.  The wrappers must be transparent — the layer run
   reproduces the plain run's outcome digest and counts exactly — and
   each par variant (storm_par, ...) must reproduce its workload's
   digest. *)

open Servebench
module Engine = Goalcom_session.Engine

(* Run the par variants on two domains even where the host reports
   one, so its sharded quantum is exercised. *)
let () = Unix.putenv "GOALCOM_HW_JOBS" "2"

let small (w : Workloads.t) =
  match w.population with Control_mix -> 6 | E18_mix -> 90

let counts (r : Engine.report) =
  [
    ("completed", r.completed);
    ("shed", r.shed);
    ("gave_up", r.gave_up);
    ("restarts", r.restarts);
    ("trips", r.trips);
    ("total_rounds", r.total_rounds);
    ("ticks", r.ticks);
  ]

let run ~layers (w : Workloads.t) =
  Measure.run ~layers ~seed:7 { w with sessions = small w }

let transparent (w : Workloads.t) () =
  let plain = run ~layers:false w and layered = run ~layers:true w in
  Alcotest.(check string) "digest" plain.report.digest layered.report.digest;
  Alcotest.(check (list (pair string int)))
    "counts" (counts plain.report) (counts layered.report);
  Alcotest.(check int) "plain goal states accepted" 0 plain.bad_states;
  Alcotest.(check int) "layered goal states accepted" 0 layered.bad_states;
  Alcotest.(check bool) "some session reached its goal" true
    (plain.report.completed > 0);
  let figure name =
    match List.assoc_opt name layered.figures with
    | Some (Measure.Int i) -> float_of_int i
    | Some (Measure.Num f) -> f
    | _ -> Alcotest.failf "layer run lacks %s" name
  in
  (* every layer the workload passes through was seen by its wrapper *)
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ " called") true (figure (l ^ ".calls") > 0.))
    [ "universal"; "sensing"; "servers"; "world"; "referee" ];
  if w.ring <> None then
    Alcotest.(check bool) "ring sink called" true (figure "ring.events" > 0.)

let par_matches (w : Workloads.t) () =
  let plain = run ~layers:false w in
  let par = run ~layers:false (Workloads.par w) in
  Alcotest.(check string) "digest" plain.report.digest par.report.digest;
  Alcotest.(check (list (pair string int)))
    "counts" (counts plain.report) (counts par.report)

let () =
  Alcotest.run "servebench"
    [
      ( "layer run is transparent",
        List.map
          (fun (w : Workloads.t) -> Alcotest.test_case w.name `Quick (transparent w))
          Workloads.all );
      ( "par variant = its workload",
        List.map
          (fun (w : Workloads.t) -> Alcotest.test_case w.name `Quick (par_matches w))
          Workloads.base );
    ]
