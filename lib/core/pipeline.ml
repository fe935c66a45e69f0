type config = {
  placement : Placement.t;
  pin_config : Analysis.Ibt.config;
  seed : int;
  ir_jobs : int;
  infer : bool;
      (* run the inference refiner as a third disassembly source;
         off by default so every existing path is byte-identical *)
}

let default_config =
  {
    placement = Placement.optimized;
    pin_config = Analysis.Ibt.default_config;
    seed = 1;
    ir_jobs = 1;
    infer = false;
  }

(* 0 means "ask the runtime" — shared by --jobs and --ir-jobs so every
   knob resolves the same way and the resolved value can be surfaced. *)
let resolve_jobs j = if j = 0 then Domain.recommended_domain_count () else max 1 j

type timing = {
  ir_construction_s : float;
  transformation_s : float;
  reassembly_s : float;
}

type cache_stats = {
  ir_cache_hits : int;
  ir_cache_misses : int;
  routine_hits : int;
  routine_misses : int;
  delta_builds : int;
  par_builds : int;
  par_fallbacks : int;
}

type result = {
  rewritten : Zelf.Binary.t;
  ir : Ir_construction.t;
  stats : Reassemble.stats;
  timing : timing;
  cache : cache_stats;
}

let zero_timing = { ir_construction_s = 0.0; transformation_s = 0.0; reassembly_s = 0.0 }

let add_timing a b =
  {
    ir_construction_s = a.ir_construction_s +. b.ir_construction_s;
    transformation_s = a.transformation_s +. b.transformation_s;
    reassembly_s = a.reassembly_s +. b.reassembly_s;
  }

let zero_cache_stats =
  {
    ir_cache_hits = 0;
    ir_cache_misses = 0;
    routine_hits = 0;
    routine_misses = 0;
    delta_builds = 0;
    par_builds = 0;
    par_fallbacks = 0;
  }

let add_cache_stats a b =
  {
    ir_cache_hits = a.ir_cache_hits + b.ir_cache_hits;
    ir_cache_misses = a.ir_cache_misses + b.ir_cache_misses;
    routine_hits = a.routine_hits + b.routine_hits;
    routine_misses = a.routine_misses + b.routine_misses;
    delta_builds = a.delta_builds + b.delta_builds;
    par_builds = a.par_builds + b.par_builds;
    par_fallbacks = a.par_fallbacks + b.par_fallbacks;
  }

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let ir_cache_key ~pin_config ~infer binary =
  Irdb.Cache.key
    [
      Ir_construction.snapshot_version;
      Ir_construction.fingerprint ~infer pin_config;
      Bytes.to_string (Zelf.Binary.serialize binary);
    ]

(* IR acquisition, in order:

   - with a routine cache, the delta path ({!Delta.obtain}: whole-IR memo
     hit, or a validated routine-granular stitch);
   - the snapshot cache: a hit restores the snapshot; a miss — or a
     payload the codec rejects — builds cold and (re)publishes it.  Under
     a routine cache only a snapshot cache with a disk directory takes
     part: in memory the memo already holds every whole IR it could, so
     it would be written and never read;
   - a cold build.  Whatever the routine cache declined is harvested
     back into it before any transform can touch the IR.

   With [ir_jobs > 1] a cold build first tries the domain-parallel
   chunked construction ({!Par_ir}), falling back to the serial build
   (counted) when its stitch validation declines.  Outputs are
   byte-identical on every path, so no cache key depends on [ir_jobs].
   [ir_construction_s] times whichever path actually ran. *)
let obtain_ir ?ir_cache ?routine_cache ?(ir_jobs = 1) ?(infer = false) ~pin_config binary =
  (* [decoded]: the decode table the delta path's chunk scan (and any
     declined stitch) already filled part of; the cold build reuses it. *)
  let build ?decoded () =
    timed (fun () ->
        Obs.span "ir" ~args:[ ("source", "build") ] (fun () ->
            let decoded = Disasm.Decoded.for_binary ?decoded binary in
            if ir_jobs <= 1 then
              (Ir_construction.build ~pin_config ~infer ~decoded binary, zero_cache_stats)
            else
              match Par_ir.build ~jobs:ir_jobs ~pin_config ~infer ~decoded binary with
              | Some ir ->
                  Obs.count "pipeline.par_builds" 1;
                  (ir, { zero_cache_stats with par_builds = 1 })
              | None ->
                  Obs.count "pipeline.par_fallbacks" 1;
                  ( Ir_construction.build ~pin_config ~infer ~decoded binary,
                    { zero_cache_stats with par_fallbacks = 1 } )))
  in
  let from_snapshots ?decoded cache =
    let key = ir_cache_key ~pin_config ~infer binary in
    (* Restore checks boundaries against the table a miss then builds on. *)
    let decoded = Disasm.Decoded.for_binary ?decoded binary in
    let restored =
      Option.bind (Irdb.Cache.find cache key) (fun payload ->
          match
            timed (fun () ->
                Obs.span "ir" ~args:[ ("source", "cache") ] (fun () ->
                    Ir_construction.restore ~decoded binary payload))
          with
          | Ok ir, t -> Some (ir, t)
          | Error _, _ -> None)
    in
    match restored with
    | Some (ir, t) ->
        Obs.count "pipeline.ir_cache_hits" 1;
        ((ir, { zero_cache_stats with ir_cache_hits = 1 }), t)
    | None ->
        let (ir, stats), t = build ~decoded () in
        Irdb.Cache.store cache ~key (Ir_construction.snapshot ir);
        Obs.count "pipeline.ir_cache_misses" 1;
        ((ir, { stats with ir_cache_misses = 1 }), t)
  in
  let acquire ?decoded () =
    match ir_cache with
    | Some cache when Option.is_none routine_cache || Irdb.Cache.dir cache <> None ->
        from_snapshots ?decoded cache
    | _ -> build ?decoded ()
  in
  match routine_cache with
  | None ->
      let (ir, stats), t = acquire () in
      (ir, t, stats)
  | Some dc -> (
      let outcome, t0 =
        timed (fun () ->
            Obs.span "ir" ~args:[ ("source", "delta") ] (fun () ->
                Delta.obtain dc ~pin_config ~infer binary))
      in
      let dstats =
        {
          zero_cache_stats with
          routine_hits = outcome.Delta.routine_hits;
          routine_misses = outcome.Delta.routine_misses;
          delta_builds = (if outcome.Delta.delta_built then 1 else 0);
        }
      in
      match outcome.Delta.ir with
      | Some ir -> (ir, t0, dstats)
      | None ->
          let (ir, stats), t1 = acquire ?decoded:(Delta.decoded outcome) () in
          Delta.harvest dc outcome ir;
          (ir, t0 +. t1, add_cache_stats dstats stats))

(* Per-transform spans want a computed name ("transform:cfi"); build the
   string only when a sink is installed so the default path keeps
   [Transform.apply_all] allocation-for-allocation unchanged. *)
let apply_transforms transforms db =
  if Obs.enabled () then
    Obs.span "transforms" (fun () ->
        List.iter
          (fun (t : Transform.t) ->
            Obs.span ("transform:" ^ t.Transform.name) (fun () ->
                Transform.apply_all [ t ] db))
          transforms)
  else Transform.apply_all transforms db

let rewrite ?(config = default_config) ?ir_cache ?routine_cache ~transforms binary =
  Obs.span "rewrite" (fun () ->
      let ir, ir_construction_s, cache =
        obtain_ir ?ir_cache ?routine_cache
          ~ir_jobs:(resolve_jobs config.ir_jobs)
          ~infer:config.infer ~pin_config:config.pin_config binary
      in
      let (), transformation_s =
        timed (fun () -> apply_transforms transforms ir.Ir_construction.db)
      in
      let (rewritten, stats), reassembly_s =
        timed (fun () ->
            Obs.span "reassemble" (fun () ->
                Reassemble.run ~strategy:config.placement ~seed:config.seed ir))
      in
      {
        rewritten;
        ir;
        stats;
        timing = { ir_construction_s; transformation_s; reassembly_s };
        cache;
      })

let try_rewrite ?config ?ir_cache ?routine_cache ~transforms binary =
  match rewrite ?config ?ir_cache ?routine_cache ~transforms binary with
  | r -> Ok r
  | exception Reassemble.Failure_ msg -> Error ("reassembly failed: " ^ msg)
  | exception Stdlib.Failure msg -> Error ("pipeline failure: " ^ msg)
  | exception Invalid_argument msg -> Error ("pipeline invalid argument: " ^ msg)
  | exception Not_found -> Error "pipeline failure: lookup failed (Not_found)"

let rewrite_bytes ?config ?ir_cache ?routine_cache ~transforms raw =
  match Zelf.Binary.parse raw with
  | Error e -> Error (Format.asprintf "parse error: %a" Zelf.Binary.pp_parse_error e)
  | Ok binary ->
      Result.map
        (fun r -> Zelf.Binary.serialize r.rewritten)
        (try_rewrite ?config ?ir_cache ?routine_cache ~transforms binary)
