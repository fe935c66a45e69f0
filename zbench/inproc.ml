(* The in-process workloads, driven through [Pipeline.rewrite_bytes]:

   - scale-cold: a class- and size-stratified seeded draw from the 1k
     scale corpus, rewritten one binary at a time with the Null
     transform, the default configuration and no caches (the
     [ziprtool batch] path);
   - large-par: the first members of the large class (>= 256 KiB of
     text), rewritten cold with [ir_jobs = 0], i.e. one IR worker per
     core. *)

type spec = {
  name : string;
  members : int;
  config : Zipr.Pipeline.config;
  draw : seed:int -> n:int -> Members.t list;
  check_jobs : int;  (** domains for the oracle pass *)
  known : (Members.t * string) list Lazy.t;  (** inputs known to show a defect *)
}

let null = [ Transforms.Null.transform ]

let scale_cold =
  {
    name = "scale-cold";
    members = 480;
    config = Zipr.Pipeline.default_config;
    draw = (fun ~seed ~n -> Members.scale ~seed ~n ());
    check_jobs = Common.check_jobs ();
    known =
      lazy
        (List.map
           (fun (index, why) ->
             (Members.of_item ~index (Workloads.Scale.generate_one ~seed:1 index), why))
           Members.known_miscompiled);
  }

(* The IR build of a large member already uses every core. *)
let large_par =
  {
    name = "large-par";
    members = 12;
    config = { Zipr.Pipeline.default_config with ir_jobs = 0 };
    draw = (fun ~seed ~n -> Members.large ~seed ~n ());
    check_jobs = 1;
    known = lazy [];
  }

(* One traced rewrite: the same work through the composition of layers. *)
let traced_rewrite spec (m : Members.t) =
  let binary = Layers.parse m.raw in
  let ir_jobs = Zipr.Pipeline.resolve_jobs spec.config.ir_jobs in
  fst (Layers.finish ~transforms:null (Layers.build_ir ~ir_jobs binary))

type loop = {
  latencies : float list;  (** seconds, of the rewrites that succeeded *)
  by_member : float list array;  (** the same, per member *)
  ops : int;  (** rewrites attempted *)
  failed : int;
  wall : float;
  traced_mean_s : float;
  outputs : bytes option array;  (** each member's first output *)
  refused : bool array;  (** members the rewriter refused *)
}

(* Cycle over the members until [deadline], timing each
   [Pipeline.rewrite_bytes].  A member's first output is kept for the
   oracle and every later output must equal it; a member the rewriter
   refuses with an explicit error is dropped from the cycle.  With
   [traced], each rewrite is followed by the same rewrite through the
   traced composition, so both see the same heap and machine state. *)
let timed_loop spec (ms : Members.t array) ~deadline ~traced ~probe =
  let n = Array.length ms in
  let outputs = Array.make n None and refused = Array.make n false in
  let by_member = Array.make n [] in
  let lat = ref [] and traced_s = ref 0.0 and failed = ref 0 and ops = ref 0 in
  let k = ref 0 and live = ref n in
  Layers.reset ();
  let t_start = Common.now () and spent0 = probe.Calib.spent in
  while !live > 0 && Common.now () < deadline do
    let i = !k mod n in
    incr k;
    Calib.tick probe;
    if not refused.(i) then begin
      let m = ms.(i) in
      incr ops;
      let t0 = Common.now () in
      let out = Zipr.Pipeline.rewrite_bytes ~config:spec.config ~transforms:null m.raw in
      let dt = Common.now () -. t0 in
      match (out, outputs.(i)) with
      | Error e, None ->
          Common.say "refused %s: %s" m.name e;
          refused.(i) <- true;
          decr live
      | Error e, Some _ ->
          incr failed;
          Common.say "ERROR %s: %s" m.name e
      | Ok b, Some b0 when not (Bytes.equal b b0) ->
          incr failed;
          Common.say "MISMATCH %s: output differs from the first rewrite" m.name
      | Ok b, _ ->
          outputs.(i) <- Some b;
          lat := dt :: !lat;
          by_member.(i) <- dt :: by_member.(i);
          if traced then begin
            let t0 = Common.now () in
            let t_out = traced_rewrite spec m in
            traced_s := !traced_s +. (Common.now () -. t0);
            if not (Bytes.equal t_out b) then begin
              incr failed;
              Common.say "MISMATCH %s: traced composition differs from rewrite_bytes" m.name
            end
          end
    end
  done;
  {
    latencies = !lat;
    by_member;
    ops = !ops;
    failed = !failed;
    wall = Common.now () -. t_start -. (probe.spent -. spent0);
    traced_mean_s = !traced_s /. float_of_int (max 1 (List.length !lat));
    outputs;
    refused;
  }

(* The oracle over the whole draw, after the timed loop.  Returns the
   references of the members the rewriter accepts and the number of
   disagreements with what the loop produced. *)
let check spec (ms : Members.t array) (l : loop) =
  let refs =
    Common.parallel_map ~jobs:spec.check_jobs
      (Reference.make ~config:spec.config ~transforms:null)
      ms
  in
  let failed = ref 0 and refused = ref [] in
  Array.iteri
    (fun i r ->
      let m = ms.(i) in
      match (r, l.outputs.(i)) with
      | None, None -> refused := m :: !refused
      | None, Some _ ->
          incr failed;
          Common.say "MISMATCH %s: refused by try_rewrite, accepted by rewrite_bytes" m.name
      | Some _, None when l.refused.(i) ->
          incr failed;
          Common.say "MISMATCH %s: refused by rewrite_bytes, accepted by try_rewrite" m.name
      | Some (r : Reference.t), Some b when not (Bytes.equal b r.output) ->
          incr failed;
          Common.say "MISMATCH %s: rewrite_bytes differs from try_rewrite" m.name
      | Some _, _ -> ())
    refs;
  Reference.report_refused ~workload:spec.name ~drawn:(Array.length ms) (List.rev !refused);
  (List.filter_map Fun.id (Array.to_list refs), !failed)

(* Every run rewrites the inputs known to show a defect, which no draw
   takes, and says whether each still shows it.  They are not operations
   of the workload, so they do not count in [failed]. *)
let recheck_known spec =
  List.iter
    (fun ((m : Members.t), why) ->
      let status =
        match Reference.make ~quiet:true ~config:spec.config ~transforms:null m with
        | Some r when Oracle.passed r.verdict -> "now passes: the defect is gone"
        | Some _ -> "still fails the oracle"
        | None -> "refused by the rewriter"
      in
      Common.say "known defect, left out of every draw: %s (%s): %s" m.name why status)
    (Lazy.force spec.known)

let setup_probe_runs = 101

let run spec ~seed ~seconds ~trace ~setup_probe =
  let ms = Array.of_list (spec.draw ~seed ~n:spec.members) in
  let probe = Calib.create ~every:0.1 in
  let setup_s = Calib.paired probe setup_probe_runs setup_probe in
  let l = timed_loop spec ms ~deadline:(Common.now () +. seconds) ~traced:trace ~probe in
  let rss = Common.peak_rss_mib "self" in
  let refs, mismatches = check spec ms l in
  Reference.report_oracle refs;
  recheck_known spec;
  let failed = l.failed + mismatches + Reference.failed_checks refs in
  let attempted = l.ops + Array.length ms in
  let ok_ops = List.length l.latencies in
  let lat_ms = List.map (fun s -> s *. 1e3) l.latencies in
  (* The median member: a window ends part way through a pass over the
     members, so a median over rewrites would weigh the members of the
     last pass twice. *)
  let member_ms =
    Array.to_list l.by_member
    |> List.filter_map (function [] -> None | xs -> Some (1e3 *. Common.median xs))
  in
  let p50 =
    ( Common.median member_ms,
      Printf.sprintf "median of %d members' medians, %d rewrites" (List.length member_ms) ok_ops )
  in
  let timings, raw =
    Calib.timing_metrics
      ~setup:(setup_s, Printf.sprintf "median of %d launches" setup_probe_runs)
      ~probe ~p50 ~ops:ok_ops ~wall:l.wall ~what:"rewrites"
  in
  let e2e =
    timings
    @ [
      Common.metric ~note:(Printf.sprintf "mean over %d binaries" (List.length refs))
        "size_overhead_pct" "%" (Reference.mean_size_overhead refs);
      Common.metric
        ~note:(Printf.sprintf "%d inputs per binary" Oracle.inputs_per_binary)
        "exec_overhead_pct" "%" (Reference.mean_exec_overhead refs);
      Common.metric "peak_rss_mib" "MiB" rss;
    ]
  in
  let extra =
    raw
    @ Common.metric "error_rate" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))
    :: Common.tail_metrics lat_ms
  in
  if not trace then begin
    Common.print_table (spec.name ^ ": end to end") (e2e @ extra);
    Common.print_result ~correct:(failed = 0) ~attempted ~failed e2e
  end
  else begin
    let layers, printed =
      Layers.table ~ops:ok_ops ~e2e_mean_s:(Common.mean l.latencies)
        ~traced_mean_s:l.traced_mean_s ~verify_ms:(Reference.verify_ms refs)
    in
    let layers = layers @ Serve_load.layer_metrics [] in
    Common.print_table (spec.name ^ ": untraced, interleaved with the traced rewrites") (e2e @ extra);
    Common.print_table (spec.name ^ ": per layer, traced") (printed @ layers);
    Common.print_result ~correct:(failed = 0) ~attempted:(attempted + ok_ops) ~failed layers
  end
