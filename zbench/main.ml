(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds and prints its metrics, by name and
   unit, then one JSON line as the last line of standard output.  With
   --trace 0 that line holds the end-to-end metrics; with --trace 1 it
   holds the per-layer metrics of a traced run.  zbench/run.sh builds the
   program and this benchmark from source and passes its arguments on. *)

let usage =
  "usage: main.exe --workload scale-cold|large-par|serve-mix --seed N --seconds S --trace 0|1"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> fail "%s" usage
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> fail "%s" usage in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> fail "%s" usage in
  let workload = get "workload" and seed = int_arg "seed" and trace = int_arg "trace" <> 0 in
  let seconds =
    match float_of_string_opt (get "seconds") with
    | Some s when s > 0.0 -> s
    | _ -> fail "%s" usage
  in
  (* Built next to this program by zbench/run.sh. *)
  let ziprtool = "_build/default/bin/ziprtool.exe" in
  let run_dir = ".zbench" in
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  at_exit (fun () -> try Sys.rmdir run_dir with Sys_error _ -> ());
  (* Exit through [at_exit] on a signal too, so a daemon never outlives us. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  if not (Sys.file_exists ziprtool) then fail "zbench: %s not built" ziprtool;
  (* In-process set-up.  [Pipeline.rewrite_bytes] with no caches does no
     work of its own before the first rewrite, so what a user of the
     batch path waits for is the rewriter's process start: launch to exit
     of [ziprtool --version] (the runtime start and every linked library's
     initialisation). *)
  let setup_probe () =
    let log = Filename.concat run_dir (Printf.sprintf "probe-%d.log" (Unix.getpid ())) in
    let t0 = Common.now () in
    let pid = Common.spawn ~log [| ziprtool; "--version" |] in
    let status = Common.wait_pid pid in
    let dt = Common.now () -. t0 in
    if status <> Unix.WEXITED 0 then failwith ("set-up probe failed; see " ^ log);
    Sys.remove log;
    dt
  in
  Common.say "zbench: workload %s, seed %d, %.0f s, trace %b, %d cores, OCaml %s" workload seed
    seconds trace (Domain.recommended_domain_count ()) Sys.ocaml_version;
  match workload with
  | "scale-cold" -> Inproc.run Inproc.scale_cold ~seed ~seconds ~trace ~setup_probe
  | "large-par" -> Inproc.run Inproc.large_par ~seed ~seconds ~trace ~setup_probe
  | "serve-mix" -> Serve_load.run ~ziprtool ~run_dir ~seed ~seconds ~trace
  | w -> fail "zbench: unknown workload %s\n%s" w usage
