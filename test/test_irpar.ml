(* Intra-binary parallel IR construction: equality with the serial cold
   build (verdicts, pins, row order, bytes), fallback semantics on
   binaries the span validation cannot prove clean, the 0-means-auto
   jobs rule, and the large workload class the irpar bench runs on. *)

module Scale = Workloads.Scale
module Chunker = Disasm.Chunker

let transforms = [ Transforms.Cfi.transform; Transforms.Stack_pad.transform ]

let config ir_jobs = { Zipr.Pipeline.default_config with Zipr.Pipeline.ir_jobs }

let rewrite ?routine_cache ~ir_jobs binary =
  match
    Zipr.Pipeline.try_rewrite ?routine_cache ~config:(config ir_jobs) ~transforms binary
  with
  | Ok r -> r
  | Error m -> Alcotest.failf "rewrite failed: %s" m

let out (r : Zipr.Pipeline.result) = Zelf.Binary.serialize r.Zipr.Pipeline.rewritten

(* -- the large workload class -- *)

let test_large_class () =
  let a = Scale.generate_large ~seed:1 0 in
  let b = Scale.generate_large ~seed:1 0 in
  Alcotest.(check bool) "deterministic" true
    (Bytes.equal (Zelf.Binary.serialize a.Scale.binary) (Zelf.Binary.serialize b.Scale.binary));
  let scan = Chunker.scan a.Scale.binary in
  Alcotest.(check bool)
    (Printf.sprintf "text >= 256 KiB (got %d)" scan.Chunker.len)
    true
    (scan.Chunker.len >= 256 * 1024);
  Alcotest.(check string) "name records the class" "lg000-large.zbf" a.Scale.name

(* -- parallel build == serial cold build, at the IR level -- *)

let check_ir_equal ~what (serial : Zipr.Ir_construction.t) (par : Zipr.Ir_construction.t) =
  Alcotest.(check bool)
    (what ^ ": identical verdict array")
    true
    (serial.Zipr.Ir_construction.aggregate.Disasm.Aggregate.verdicts
    = par.Zipr.Ir_construction.aggregate.Disasm.Aggregate.verdicts);
  Alcotest.(check bool)
    (what ^ ": identical pins")
    true
    (Analysis.Ibt.pins serial.Zipr.Ir_construction.pins
    = Analysis.Ibt.pins par.Zipr.Ir_construction.pins);
  Alcotest.(check bool)
    (what ^ ": identical row ids in order")
    true
    (Irdb.Db.ids serial.Zipr.Ir_construction.db = Irdb.Db.ids par.Zipr.Ir_construction.db);
  Alcotest.(check bool)
    (what ^ ": identical snapshot")
    true
    (String.equal
       (Zipr.Ir_construction.snapshot serial)
       (Zipr.Ir_construction.snapshot par))

let prop_par_equals_serial =
  QCheck.Test.make ~count:10
    ~name:"parallel chunked IR = serial build on Scale members (ir-jobs 1 vs 4)"
    QCheck.(make ~print:string_of_int Gen.(0 -- 400))
    (fun index ->
      let binary = (Scale.generate_one ~seed:23 index).Scale.binary in
      let serial = Zipr.Ir_construction.build binary in
      (match Zipr.Par_ir.build ~jobs:4 ~pin_config:Analysis.Ibt.default_config binary with
      | Some par -> check_ir_equal ~what:(Printf.sprintf "index %d" index) serial par
      | None -> ());
      (* Bytes are identical whether the parallel path built or fell back. *)
      let a = rewrite ~ir_jobs:1 binary and b = rewrite ~ir_jobs:4 binary in
      Alcotest.(check int) "one cold build"
        1
        (b.Zipr.Pipeline.cache.Zipr.Pipeline.par_builds
        + b.Zipr.Pipeline.cache.Zipr.Pipeline.par_fallbacks);
      Bytes.equal (out a) (out b))

let test_large_par_build () =
  let binary = (Scale.generate_large ~seed:1 0).Scale.binary in
  let a = rewrite ~ir_jobs:1 binary and b = rewrite ~ir_jobs:4 binary in
  Alcotest.(check bool) "large member byte-identical" true (Bytes.equal (out a) (out b));
  Alcotest.(check int) "parallel path served the build" 1
    b.Zipr.Pipeline.cache.Zipr.Pipeline.par_builds;
  Alcotest.(check int) "no fallback" 0 b.Zipr.Pipeline.cache.Zipr.Pipeline.par_fallbacks;
  Alcotest.(check int) "serial path has no par counters" 0
    (a.Zipr.Pipeline.cache.Zipr.Pipeline.par_builds
    + a.Zipr.Pipeline.cache.Zipr.Pipeline.par_fallbacks)

(* -- fallback semantics -- *)

(* A chunk task accepts the honest span and rejects an upper cut inside
   a linear instruction, and a cover with one entry shifted off the
   instruction it belongs to. *)
let test_validate_span_falls_back () =
  let binary = (Scale.generate_one ~seed:23 0).Scale.binary in
  let rec_ = Disasm.Recursive.traverse binary in
  let base = rec_.Disasm.Recursive.base and len = rec_.Disasm.Recursive.len in
  let falls_back r ~lo ~hi =
    match Zipr.Par_ir.validate_span r ~lo ~hi with
    | () -> false
    | exception Zipr.Par_ir.Fallback -> true
  in
  (* The first traversed instruction longer than one byte. *)
  let start =
    let rec find off =
      if off >= len then Alcotest.fail "no multi-byte instruction"
      else if
        rec_.Disasm.Recursive.cover.(off) = base + off
        && Disasm.Decoded.length rec_.Disasm.Recursive.decoded off > 1
      then base + off
      else find (off + 1)
    in
    find 0
  in
  let ilen = Disasm.Decoded.length rec_.Disasm.Recursive.decoded (start - base) in
  Alcotest.(check bool) "the honest instruction validates" false
    (falls_back rec_ ~lo:start ~hi:(start + ilen));
  Alcotest.(check bool) "an upper cut inside it falls back" true
    (falls_back rec_ ~lo:start ~hi:(start + ilen - 1));
  let cover = Array.copy rec_.Disasm.Recursive.cover in
  cover.(start - base + 1) <- start + 1;
  Alcotest.(check bool) "a shifted cover entry falls back" true
    (falls_back { rec_ with Disasm.Recursive.cover } ~lo:start ~hi:(start + ilen))

(* Binaries the stitch cannot prove clean (hidden computed-jump regions,
   data islands that decode) must take the serial fallback and still
   produce byte-identical output. *)
let test_dirty_binary_fallback_identical () =
  List.iter
    (fun seed ->
      let binary =
        (Workloads.Synthetic.frag_like ~seed ~tests:0 ()).Workloads.Synthetic.binary
      in
      let a = rewrite ~ir_jobs:1 binary and b = rewrite ~ir_jobs:4 binary in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d byte-identical" seed)
        true
        (Bytes.equal (out a) (out b));
      Alcotest.(check int)
        (Printf.sprintf "seed %d: exactly one cold build" seed)
        1
        (b.Zipr.Pipeline.cache.Zipr.Pipeline.par_builds
        + b.Zipr.Pipeline.cache.Zipr.Pipeline.par_fallbacks))
    [ 404; 405 ]

(* -- 0 means auto -- *)

let test_jobs_auto () =
  Alcotest.(check bool) "resolve_jobs 0 >= 1" true (Zipr.Pipeline.resolve_jobs 0 >= 1);
  Alcotest.(check int) "resolve_jobs clamps" 1 (Zipr.Pipeline.resolve_jobs (-3));
  Alcotest.(check int) "resolve_jobs passes through" 4 (Zipr.Pipeline.resolve_jobs 4);
  let binary = (Scale.generate_one ~seed:23 7).Scale.binary in
  let a = rewrite ~ir_jobs:1 binary and b = rewrite ~ir_jobs:0 binary in
  Alcotest.(check bool) "auto ir-jobs byte-identical" true (Bytes.equal (out a) (out b))

(* -- composition with the delta cache: a parallel cold build feeds the
      fragment harvest, and the memo serves the repeat -- *)

let test_composes_with_delta () =
  let binary = (Scale.generate_one ~seed:23 3).Scale.binary in
  let plain = rewrite ~ir_jobs:1 binary in
  let dc = Zipr.Delta.create () in
  let cold = rewrite ~routine_cache:dc ~ir_jobs:4 binary in
  Alcotest.(check bool) "delta+par cold byte-identical" true
    (Bytes.equal (out plain) (out cold));
  Alcotest.(check int) "cold build went through the pipeline once" 1
    (cold.Zipr.Pipeline.cache.Zipr.Pipeline.par_builds
    + cold.Zipr.Pipeline.cache.Zipr.Pipeline.par_fallbacks);
  let warm = rewrite ~routine_cache:dc ~ir_jobs:4 binary in
  Alcotest.(check bool) "warm byte-identical" true (Bytes.equal (out plain) (out warm));
  Alcotest.(check int) "warm run is served by the memo, not the par path" 0
    (warm.Zipr.Pipeline.cache.Zipr.Pipeline.par_builds
    + warm.Zipr.Pipeline.cache.Zipr.Pipeline.par_fallbacks);
  Alcotest.(check bool) "memo hit" true
    (warm.Zipr.Pipeline.cache.Zipr.Pipeline.routine_hits > 0)

(* -- one boundary format on every acquisition path -- *)

(* Every boundary an aggregate yields is the decode-table entry at its
   offset, iteration is strictly ascending, and lookup and count agree
   with it. *)
let boundaries_match_table binary (agg : Disasm.Aggregate.t) =
  let d = Disasm.Decoded.create binary in
  let base = Disasm.Decoded.base d in
  let ok = ref true and prev = ref min_int and n = ref 0 in
  Disasm.Aggregate.iter_boundaries
    (fun addr insn len ->
      let off = addr - base in
      incr n;
      if
        addr <= !prev || off < 0
        || off >= Disasm.Decoded.len d
        || len <> Disasm.Decoded.length d off
        || len = 0
        || insn <> Disasm.Decoded.insn d off
        || Disasm.Aggregate.boundary agg addr <> Some (insn, len)
      then ok := false;
      prev := addr)
    agg;
  !ok && !n = Disasm.Aggregate.boundary_count agg

(* The aggregates of the four acquisition paths, where each applies: the
   cold run, the delta path's stitch ([Par_ir.build] at one job over the
   table its chunk scan filled), the parallel builder's, and a snapshot
   restore. *)
let acquisitions ~infer binary =
  let pin_config = Analysis.Ibt.default_config in
  let cold = Disasm.Aggregate.run ~infer binary in
  let validated ~jobs ?decoded () =
    match Zipr.Par_ir.build ~jobs ~pin_config ~infer ?decoded binary with
    | Some ir -> [ ir.Zipr.Ir_construction.aggregate ]
    | None -> []
  in
  let stitched =
    let decoded = Disasm.Decoded.create binary in
    ignore (Chunker.scan ~decoded binary);
    validated ~jobs:1 ~decoded ()
  in
  let par = validated ~jobs:4 () in
  let restored =
    let ir = Zipr.Ir_construction.build_from_aggregate ~pin_config binary cold in
    match Zipr.Ir_construction.restore binary (Zipr.Ir_construction.snapshot ir) with
    | Ok ir -> ir.Zipr.Ir_construction.aggregate
    | Error m -> Alcotest.failf "restore failed: %s" m
  in
  (cold :: restored :: stitched) @ par

let prop_boundaries_are_table_entries =
  QCheck.Test.make ~count:16
    ~name:"boundaries are decode-table entries, ascending, on every acquisition path"
    Test_disasm.gen_corpus_case (fun case ->
      let binary = Test_disasm.corpus_binary case in
      List.for_all
        (fun infer -> List.for_all (boundaries_match_table binary) (acquisitions ~infer binary))
        [ false; true ])

(* Most small members carry data islands, so only the cold and restore
   paths apply to them; a large member validates on all four. *)
let test_large_boundaries_on_every_path () =
  let binary = (Scale.generate_large ~seed:1 0).Scale.binary in
  List.iter
    (fun infer ->
      let aggs = acquisitions ~infer binary in
      Alcotest.(check int) "four acquisition paths" 4 (List.length aggs);
      List.iter
        (fun agg ->
          Alcotest.(check bool) "boundaries are table entries" true
            (boundaries_match_table binary agg))
        aggs)
    [ false; true ]

(* A snapshot whose boundary record disagrees with the text must not
   restore: the record's address moves one byte, and separately its
   instruction is replaced by another. *)
let test_restore_refuses_foreign_boundary () =
  let binary = (Scale.generate_one ~seed:23 0).Scale.binary in
  let snap = Zipr.Ir_construction.snapshot (Zipr.Ir_construction.build binary) in
  let lines = String.split_on_char '\n' snap in
  let first_a = List.find (fun l -> String.length l > 2 && String.sub l 0 2 = "A ") lines in
  let mutate f =
    String.concat "\n" (List.map (fun l -> if l == first_a then f l else l) lines)
  in
  let restores payload = Result.is_ok (Zipr.Ir_construction.restore binary payload) in
  Alcotest.(check bool) "unmodified snapshot restores" true (restores snap);
  let addr, hex, len =
    match String.split_on_char ' ' first_a with
    | [ "A"; a; h; l ] -> (int_of_string a, h, l)
    | _ -> Alcotest.fail "malformed A record"
  in
  Alcotest.(check bool) "shifted boundary refused" false
    (restores (mutate (fun _ -> Printf.sprintf "A %d %s %s" (addr + 1) hex len)));
  let other =
    Zipr_util.Hex.of_bytes
      (Zvm.Encode.to_bytes
         (if Zipr_util.Hex.of_bytes (Zvm.Encode.to_bytes Zvm.Insn.Halt) = hex then Zvm.Insn.Ret
          else Zvm.Insn.Halt))
  in
  Alcotest.(check bool) "foreign instruction refused" false
    (restores (mutate (fun _ -> Printf.sprintf "A %d %s 1" addr other)))

let suite =
  [
    Alcotest.test_case "large class: >= 256 KiB text, deterministic" `Quick test_large_class;
    QCheck_alcotest.to_alcotest ~long:true prop_par_equals_serial;
    Alcotest.test_case "large member: parallel build, byte-identical" `Slow
      test_large_par_build;
    Alcotest.test_case "validate_span falls back" `Quick test_validate_span_falls_back;
    Alcotest.test_case "dirty binaries fall back byte-identically" `Quick
      test_dirty_binary_fallback_identical;
    Alcotest.test_case "jobs 0 auto-detects" `Quick test_jobs_auto;
    Alcotest.test_case "parallel cold build composes with delta cache" `Slow
      test_composes_with_delta;
    QCheck_alcotest.to_alcotest prop_boundaries_are_table_entries;
    Alcotest.test_case "large member: boundaries on every acquisition path" `Slow
      test_large_boundaries_on_every_path;
    Alcotest.test_case "restore refuses a boundary the text disagrees with" `Quick
      test_restore_refuses_foreign_boundary;
  ]
