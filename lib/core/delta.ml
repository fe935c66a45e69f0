(* Routine-granular incremental IR construction (the "delta" path).

   The cold pipeline rebuilds the whole IR from scratch for every input,
   even when consecutive inputs are near-identical versions of one
   program.  This module caches IR at two granularities:

   - {e Level 1 — routine fragments.}  {!Disasm.Chunker} cuts the text at
     routine boundaries; for each chunk whose disassembly aggregation was
     conclusive (no ambiguous byte, no instruction crossing a cut, no
     refined byte) we record its key, a digest of the chunk bytes, the
     6-byte suffix, and the chunk-relative inbound-reference fingerprint.
     A fragment holds nothing else: the instructions are the decode
     table's, and a stitch re-derives and validates them.  A changed
     caller whose references into a callee are unchanged leaves the
     callee's key — and cached entry — intact.  Fragment hits decide
     when a stitch is worth trying.

   - {e Level 0 — assembled-IR memo.}  The finished pristine
     [Ir_construction.t] for a whole binary, keyed by everything.  A hit
     pays one {!Irdb.Db.copy}; this is what makes fully-warm repeat
     rewrites (fuzzing loops, corpus re-runs) nearly free.

   The stitch is {!Par_ir.build} at one job: a fresh recursive traversal,
   validated chunk by chunk against the linear framing and materialized
   from the traversal only when every chunk passes, so its aggregate
   provably equals what {!Disasm.Aggregate.run} would produce and flows
   through the same {!Ir_construction.build_from_aggregate} as a cold
   build.  A declined stitch reports a miss; the caller falls back to the
   cold path (and harvests it), so a binary the scheme cannot prove clean
   is merely slow, never wrong. *)

module Db = Irdb.Db
module Agg = Disasm.Aggregate
module Chunker = Disasm.Chunker
module Rcache = Irdb.Rcache

let codec_version = "ZIRDL2"

type t = {
  fragments : unit Rcache.t;  (* the keys of conclusive chunks *)
  memo : (Ir_construction.t * int) Rcache.t;
      (* pristine IR + its chunk count (so a memo hit can report
         routine-level hit counters without re-running the chunker) *)
}

type key_set = {
  binary : Zelf.Binary.t;
  memo_key : string;
  decoded : Disasm.Decoded.t Lazy.t;
      (* the decode table the scan, the stitch and a cold fallback share *)
  scan_keys : (Chunker.t * string array) Lazy.t;
      (* the chunker scan and per-chunk keys cost a full decode pass
         plus one digest per chunk — a whole-IR memo hit skips both *)
}

type outcome = {
  ir : Ir_construction.t option;
  routine_hits : int;
  routine_misses : int;
  delta_built : bool;
  keys : key_set;
}

(* A resident memo entry holds the whole IR: rows, links and the pin
   list (per row), and the aggregate's per-byte verdict array (8 bytes a
   text byte) and dense boundary store (a length byte and an instruction
   slot, 9 bytes a text byte; the boundary instructions themselves are
   counted with the rows).  The memo is bounded by entry count only;
   this rough estimate feeds its [delta.memo.resident_bytes] gauge. *)
let weigh_memo ((ir : Ir_construction.t), _) =
  1024 + (17 * ir.Ir_construction.aggregate.Agg.len) + (160 * Db.count ir.Ir_construction.db)

let create ?fragment_bytes ?(memo_capacity = 64) ?dir ?max_disk_entries ?max_disk_bytes
    () =
  let disk =
    Option.map
      (fun dir ->
        {
          Rcache.dir;
          ext = ".zirr";
          tag = "ZIRRC1";
          encode = (fun () -> codec_version);
          decode = (fun s -> if s = codec_version then Some () else None);
          max_entries = max_disk_entries;
          max_bytes = max_disk_bytes;
        })
      dir
  in
  (* A fragment is its key alone: in memory it weighs roughly the LRU
     node and table slot that hold it, and on disk it is the codec
     version (the store frames the key around it). *)
  {
    fragments =
      Rcache.create ~capacity:65536 ?max_bytes:fragment_bytes ?disk ~name:"delta.frag"
        ~weigh:(fun () -> 64) ();
    memo = Rcache.create ~capacity:memo_capacity ~name:"delta.memo" ~weigh:weigh_memo ();
  }

(* ---------- keys ---------- *)

(* Everything that determines whether a chunk is conclusive: codec
   version, pin fingerprint (the gate's notion of a conclusive build is
   downstream of the same configuration), the chunk bytes, the decode
   lookahead past the cut, the chunk-relative inbound references, and
   whether the chunk is flush with the text end (decode attempts near
   the end of the {e last} chunk are truncated by the section boundary,
   not by the next chunk's bytes). *)
let chunk_key ~fp binary (scan : Chunker.t) (c : Chunker.chunk) =
  let flags =
    Printf.sprintf "%c%c"
      (if c.Chunker.synced then 's' else 'u')
      (if c.Chunker.hi = scan.Chunker.base + scan.Chunker.len then 't' else 'm')
  in
  Irdb.Cache.key
    [
      codec_version;
      fp;
      flags;
      Chunker.chunk_bytes binary c;
      Chunker.chunk_suffix binary c;
      Chunker.inbound_string c;
    ]

(* The memo key covers the whole serialized binary (so data sections that
   feed jump tables and the address-constant scan are included), plus the
   configuration fingerprint. *)
let memo_key ~fp binary =
  Irdb.Cache.key
    [ codec_version ^ "/memo"; fp; Bytes.to_string (Zelf.Binary.serialize binary) ]

(* ---------- memo ---------- *)

(* The memo keeps its own copy of the pristine IR (transforms mutate the
   caller's) and the chunk count a later hit reports as routine hits. *)
let store_memo t ~key (ir : Ir_construction.t) (scan : Chunker.t) =
  Rcache.store t.memo ~key
    ( { ir with Ir_construction.db = Db.copy ir.Ir_construction.db },
      Array.length scan.Chunker.chunks )

(* ---------- public entry points ---------- *)

let obtain t ~pin_config ?(infer = false) binary =
  let fp = Ir_construction.fingerprint ~infer pin_config in
  let memo_key = memo_key ~fp binary in
  let decoded = lazy (Disasm.Decoded.create binary) in
  let scan_keys =
    lazy
      (let scan =
         Obs.span "delta_scan" (fun () -> Chunker.scan ~decoded:(Lazy.force decoded) binary)
       in
       (scan, Array.map (chunk_key ~fp binary scan) scan.Chunker.chunks))
  in
  let keys = { binary; memo_key; decoded; scan_keys } in
  match Rcache.find t.memo memo_key with
  | Some (ir, n) ->
      Obs.count "delta.memo_hits" 1;
      Obs.count "delta.routine_hits" n;
      let ir =
        { ir with Ir_construction.db = Db.copy ~orig:binary ir.Ir_construction.db }
      in
      { ir = Some ir; routine_hits = n; routine_misses = 0; delta_built = false; keys }
  | None -> (
      let scan, chunk_keys = Lazy.force scan_keys in
      let n = Array.length scan.Chunker.chunks in
      let hit = Array.map (fun k -> Rcache.find t.fragments k <> None) chunk_keys in
      let n_hit = Array.fold_left (fun a h -> if h then a + 1 else a) 0 hit in
      let stitched =
        (* A stitch costs a traversal; try it only once a fragment hit
           says this binary shares routines with one built before. *)
        if n_hit = 0 then None
        else
          Obs.span "delta_stitch" (fun () ->
              Par_ir.build ~jobs:1 ~pin_config ~infer ~decoded:(Lazy.force decoded) binary)
      in
      match stitched with
      | Some ir ->
          (* The whole text validated, so every missed chunk is as
             conclusive as a harvested one. *)
          Array.iteri
            (fun i h -> if not h then Rcache.store t.fragments ~key:chunk_keys.(i) ())
            hit;
          store_memo t ~key:memo_key ir scan;
          Obs.count "delta.routine_hits" n_hit;
          Obs.count "delta.routine_misses" (n - n_hit);
          Obs.count "delta.delta_builds" 1;
          {
            ir = Some ir;
            routine_hits = n_hit;
            routine_misses = n - n_hit;
            delta_built = true;
            keys;
          }
      | None ->
          if n_hit > 0 then Obs.count "delta.fallbacks" 1;
          Obs.count "delta.routine_misses" n;
          { ir = None; routine_hits = 0; routine_misses = n; delta_built = false; keys })

(* Harvest gate: a chunk is recorded iff, per the {e actual} cold
   aggregate, it contains no ambiguous byte and its boundaries tile its
   code bytes without crossing either cut.  Correctness never rests on a
   fragment — the stitch validates the whole text afresh — so the gate
   only decides what a hit promises: that a chunk with these bytes,
   lookahead and inbound references disassembled conclusively before,
   which is when a stitch is worth its traversal.

   Bytes the inference refiner flipped are excluded outright: their
   verdicts rest on whole-program facts (reachability closure, resolved
   computed targets), not on the chunk's bytes and inbound references,
   so a hit on them would promise nothing about the next binary. *)
let refined_overlaps (agg : Agg.t) (c : Chunker.chunk) =
  List.exists
    (fun (off, _) ->
      let a = agg.Agg.base + off in
      a >= c.Chunker.lo && a < c.Chunker.hi)
    agg.Agg.refined

let gate_chunk (agg : Agg.t) (c : Chunker.chunk) =
  let ok = ref (not (refined_overlaps agg c)) in
  let off = ref c.Chunker.lo in
  while !ok && !off < c.Chunker.hi do
    match agg.Agg.verdicts.(!off - agg.Agg.base) with
    | Agg.Ambiguous -> ok := false
    | Agg.Data -> incr off
    | Agg.Code -> (
        match Agg.boundary agg !off with
        | Some (_, ilen) when !off + ilen <= c.Chunker.hi ->
            for j = !off to !off + ilen - 1 do
              if agg.Agg.verdicts.(j - agg.Agg.base) <> Agg.Code then ok := false
            done;
            off := !off + ilen
        | _ -> ok := false)
  done;
  !ok

let harvest t (o : outcome) (ir : Ir_construction.t) =
  let agg = ir.Ir_construction.aggregate in
  let scan, chunk_keys = Lazy.force o.keys.scan_keys in
  Array.iteri
    (fun i c -> if gate_chunk agg c then Rcache.store t.fragments ~key:chunk_keys.(i) ())
    scan.Chunker.chunks;
  store_memo t ~key:o.keys.memo_key ir scan

let decoded (o : outcome) =
  if Lazy.is_val o.keys.decoded then Some (Lazy.force o.keys.decoded) else None

(* ---------- introspection ---------- *)

let fragment_entries t = Rcache.mem_entries t.fragments
let fragment_bytes t = Rcache.resident_bytes t.fragments
let memo_entries t = Rcache.mem_entries t.memo
