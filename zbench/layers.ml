(* The traced run: the rewrite pipeline rebuilt from each layer's public
   functions, with every call timed from outside and its minor-heap
   allocation taken as a [Gc.minor_words] delta.  [Gc.minor_words] is
   per-domain and repeats exactly for a fixed input; it does not see
   blocks allocated directly on the major heap (over 256 words), nor
   allocation in the worker domains [Par_ir] spawns. *)

type slot = { mutable secs : float; mutable words : float }

let slots : (string, slot) Hashtbl.t = Hashtbl.create 32

(* Counters of the traced run, summed over its operations. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let reset () =
  Hashtbl.reset slots;
  Hashtbl.reset counts

let span name f =
  let w0 = Gc.minor_words () in
  let t0 = Common.now () in
  let v = f () in
  let t1 = Common.now () in
  let w1 = Gc.minor_words () in
  let s =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None ->
        let s = { secs = 0.0; words = 0.0 } in
        Hashtbl.replace slots name s;
        s
  in
  s.secs <- s.secs +. (t1 -. t0);
  s.words <- s.words +. (w1 -. w0);
  v

let count name n =
  Hashtbl.replace counts name (n +. Option.value (Hashtbl.find_opt counts name) ~default:0.0)

let secs name = match Hashtbl.find_opt slots name with Some s -> s.secs | None -> 0.0
let words name = match Hashtbl.find_opt slots name with Some s -> s.words | None -> 0.0
let counted name = Option.value (Hashtbl.find_opt counts name) ~default:0.0

(* The layers one rewrite passes through, in pipeline order.  Their
   per-operation means add up to the traced operation's time. *)
let pipeline =
  [
    "zelf.parse";
    "disasm.linear";
    "disasm.recursive";
    "disasm.superset";
    "disasm.combine";
    "ir.build";
    "par_ir.build";
    "delta.obtain";
    "irdb.lookup";
    "irdb.restore";
    "irdb.snapshot";
    "delta.harvest";
    "transform.apply";
    "reassemble.run";
    "zelf.serialize";
  ]

(* The layers every workload runs; the others acquire the IR, on
   whichever path ran. *)
let everywhere = [ "zelf.parse"; "transform.apply"; "reassemble.run"; "zelf.serialize" ]
let ir_acquisition = List.filter (fun n -> not (List.mem n everywhere)) pipeline

let pin_config = Zipr.Pipeline.default_config.pin_config

(* [Ir_construction.build] as [Aggregate.run] orders it: linear sweep,
   recursive traversal, superset avoiding the traversal, then the
   three-source combination (lowest boundary priority first). *)
let cold_ir binary =
  let lin = span "disasm.linear" (fun () -> Disasm.Linear.sweep binary) in
  let rec_ = span "disasm.recursive" (fun () -> Disasm.Recursive.traverse binary) in
  let spec = span "disasm.superset" (fun () -> Disasm.Superset.run binary ~avoid:rec_) in
  let agg =
    span "disasm.combine" (fun () ->
        Disasm.Aggregate.combine_sources binary
          [ Disasm.Source.of_linear lin; spec; Disasm.Source.of_recursive rec_ ])
  in
  span "ir.build" (fun () -> Zipr.Ir_construction.build_from_aggregate ~pin_config binary agg)

(* The pipeline's cold build at [ir_jobs]: [Par_ir] when more than one
   worker, falling back to the serial build when it declines. *)
let build_ir ~ir_jobs binary =
  if ir_jobs > 1 then begin
    count "par_ir.attempts" 1.0;
    match span "par_ir.build" (fun () -> Zipr.Par_ir.build ~jobs:ir_jobs ~pin_config binary) with
    | Some ir -> ir
    | None ->
        count "par_ir.fallbacks" 1.0;
        cold_ir binary
  end
  else cold_ir binary

(* The daemon's IR acquisition under [--delta]: the delta cache first
   (whole-IR memo, then a validated routine stitch); on a miss the
   snapshot cache, restoring a hit or building cold and storing the
   snapshot; then the fragment harvest. *)
let served_ir ~delta ~snapshots binary =
  let outcome = span "delta.obtain" (fun () -> Zipr.Delta.obtain delta ~pin_config binary) in
  count "delta.routine_hits" (float_of_int outcome.routine_hits);
  count "delta.routine_misses" (float_of_int outcome.routine_misses);
  match outcome.ir with
  | Some ir ->
      if outcome.delta_built then count "delta.stitched" 1.0 else count "delta.memo_hits" 1.0;
      ir
  | None ->
      let key, found =
        span "irdb.lookup" (fun () ->
            let key = Zipr.Pipeline.ir_cache_key ~pin_config ~infer:false binary in
            (key, Irdb.Cache.find snapshots key))
      in
      count "irdb.lookups" 1.0;
      let build_and_store () =
        let ir = build_ir ~ir_jobs:1 binary in
        let snap = span "irdb.snapshot" (fun () -> Zipr.Ir_construction.snapshot ir) in
        count "irdb.snapshot_bytes" (float_of_int (String.length snap));
        span "irdb.lookup" (fun () -> Irdb.Cache.store snapshots ~key snap);
        ir
      in
      let ir =
        match found with
        | None -> build_and_store ()
        | Some payload -> (
            match
              span "irdb.restore" (fun () -> Zipr.Ir_construction.restore binary payload)
            with
            | Ok ir ->
                count "irdb.hits" 1.0;
                ir
            | Error _ -> build_and_store ())
      in
      span "delta.harvest" (fun () -> Zipr.Delta.harvest delta outcome ir);
      ir

(* Everything after IR acquisition, exactly as [Pipeline.rewrite] runs
   it with tracing off. *)
let finish ~transforms (ir : Zipr.Ir_construction.t) =
  count "ir.rows" (float_of_int (Irdb.Db.count ir.db));
  count "ir.pins" (float_of_int (Analysis.Ibt.count ir.pins));
  span "transform.apply" (fun () -> Zipr.Transform.apply_all transforms ir.db);
  let config = Zipr.Pipeline.default_config in
  let rewritten, (st : Zipr.Reassemble.stats) =
    span "reassemble.run" (fun () ->
        Zipr.Reassemble.run ~strategy:config.placement ~seed:config.seed ir)
  in
  count "reassemble.dollops_placed" (float_of_int st.dollops_placed);
  count "reassemble.sleds" (float_of_int st.sleds);
  count "reassemble.chain_hops" (float_of_int st.chain_hops);
  count "reassemble.overflow_bytes" (float_of_int st.overflow_bytes);
  count "reassemble.alloc_queries" (float_of_int st.alloc_queries);
  count "reassemble.alloc_hits" (float_of_int st.alloc_hits);
  let out = span "zelf.serialize" (fun () -> Zelf.Binary.serialize rewritten) in
  (out, rewritten)

let parse raw =
  match span "zelf.parse" (fun () -> Zelf.Binary.parse raw) with
  | Ok b -> b
  | Error e -> failwith (Format.asprintf "parse error: %a" Zelf.Binary.pp_parse_error e)

(* -- the per-layer metric table -- *)

let ratio num den = if den > 0.0 then num /. den else 0.0

(* The per-layer metrics of [ops] traced operations; [e2e_mean_s] is the
   untraced mean per operation of the same work, [traced_mean_s] the
   traced one.  Returns the metrics of the result line, then the times
   that are only printed.  The result carries the times of the layers
   every workload runs; the layers only some workloads run go there as
   their share of the untraced operation, which reads 0 where the layer
   never ran. *)
let table ~ops ~e2e_mean_s ~traced_mean_s ~verify_ms:(structural_ms, transcript_ms) =
  let per_op x = x /. float_of_int (max 1 ops) in
  let ms name = per_op (secs name) *. 1e3 in
  let layer_sum = List.fold_left (fun a n -> a +. per_op (secs n)) 0.0 pipeline in
  let m = Common.metric in
  let time n = m (n ^ "_ms") "ms" (ms n) in
  let times =
    List.map time everywhere
    @ [
        m "ir.acquire_ms" "ms" (List.fold_left (fun a n -> a +. ms n) 0.0 ir_acquisition);
        m "verify.structural_ms" "ms" structural_ms;
        m "verify.transcript_ms" "ms" transcript_ms;
      ]
  in
  let shares =
    List.map
      (fun n -> m (n ^ "_pct") "%" (100.0 *. ratio (per_op (secs n)) e2e_mean_s))
      ir_acquisition
  in
  let alloc =
    List.map
      (fun n -> m (n ^ "_mwords") "Mwords" (per_op (words n) /. 1e6))
      [
        "disasm.linear";
        "disasm.recursive";
        "disasm.superset";
        "disasm.combine";
        "ir.build";
        "reassemble.run";
      ]
  in
  let c = counted in
  let per_op_count name unit = m name unit (per_op (c name)) in
  let derived =
    [
      per_op_count "ir.rows" "count";
      per_op_count "ir.pins" "count";
      m "par_ir.fallback_ratio" "ratio" (ratio (c "par_ir.fallbacks") (c "par_ir.attempts"));
      m "irdb.snapshot_kib" "KiB" (per_op (c "irdb.snapshot_bytes") /. 1024.0);
      m "irdb.cache_hit_ratio" "ratio" (ratio (c "irdb.hits") (c "irdb.lookups"));
      m "delta.routine_hit_ratio" "ratio"
        (ratio (c "delta.routine_hits") (c "delta.routine_hits" +. c "delta.routine_misses"));
      m "delta.stitch_ratio" "ratio" (ratio (c "delta.stitched") (float_of_int ops));
      m "reassemble.alloc_hit_ratio" "ratio"
        (ratio (c "reassemble.alloc_hits") (c "reassemble.alloc_queries"));
      per_op_count "reassemble.dollops_placed" "count";
      per_op_count "reassemble.sleds" "count";
      per_op_count "reassemble.chain_hops" "count";
      per_op_count "reassemble.overflow_bytes" "bytes";
      m "trace.unattributed_pct" "%" (100.0 *. ratio (e2e_mean_s -. layer_sum) e2e_mean_s);
      m "trace.overhead_pct" "%" (100.0 *. ratio (traced_mean_s -. e2e_mean_s) e2e_mean_s);
    ]
  in
  (times @ shares @ alloc @ derived, List.map time ir_acquisition)
