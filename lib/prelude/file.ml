let with_atomic_out path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    let v = f oc in
    close_out oc;
    v
  with
  | v ->
      Sys.rename tmp path;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

let write_atomic path content =
  with_atomic_out path (fun oc -> output_string oc content)
