(* One measurement of one workload, printed as a single JSON line:

     main.exe --workload NAME --seed N [--layers]
     main.exe --workload NAME --setup-only

   The first form runs the workload once through Engine.run (plain, or
   with every layer wrapped); the second times repeated set-ups only.
   Each measurement is its own process, so the major heap's high-water
   mark, which never falls, belongs to that run alone.  run.py drives
   the processes, aggregates their lines and applies the correctness
   gate. *)

open Servebench

let () =
  let workload = ref "" and seed = ref 1 and layers = ref false in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N engine seed");
      ("--layers", Arg.Set layers, " the layer run: every layer wrapped and timed");
      ("--setup-only", Arg.Set setup_only, " time repeated set-ups, run nothing");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N [--layers | --setup-only]";
  if Build_info.profile = "dev" then begin
    (* the dev profile's -opaque roughly doubles per-event costs *)
    prerr_endline "servebench: refusing to measure a dev-profile build; build with --profile release";
    exit 2
  end;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "servebench: unknown workload %S\n" !workload;
        exit 2
  in
  let provenance =
    [
      ("host_domains", Measure.Int (Domain.recommended_domain_count ()));
      ("ocaml", Measure.Str Sys.ocaml_version);
      ("profile", Measure.Str Build_info.profile);
    ]
  in
  let figures =
    if !setup_only then
      let times = Measure.setup_seconds w in
      [
        ("workload", Measure.Str w.Workloads.name);
        ("setup_s", Measure.Num (Goalcom_prelude.Stats.median times));
        ("setup_reps", Measure.Int (List.length times));
      ]
    else
      let r = Measure.run ~layers:!layers ~seed:!seed w in
      r.Measure.figures @ [ ("bad_states", Measure.Int r.Measure.bad_states) ]
  in
  print_endline (Measure.json_of_figures (figures @ provenance))
