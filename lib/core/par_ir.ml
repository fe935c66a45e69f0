(* Traversal-validated IR construction for a single binary: the
   domain-parallel builder behind [--ir-jobs], and the delta cache's
   stitch ({!Delta}), which calls it with [~jobs:1].

   The cold pipeline runs three whole-text disassembly sources (linear
   sweep, recursive traversal, and the expensive superset decode with
   its prune fixpoint) and aggregates them byte by byte.  This module
   instead runs one fresh recursive traversal, tiles the text into
   chunks whose cuts land on instruction starts or unreached bytes of
   that traversal, and fans the chunks out over worker domains: each
   chunk task re-frames its span linearly in isolation (a pure function
   of the bytes, read through the binary's shared decode table at
   offsets inside the chunk only — no other shared state, no RNG) and
   validates the framing bidirectionally against the traversal
   ([validate_span]).  When every chunk validates, the validated claims
   coincide with the traversal by construction, so the merged aggregate
   is materialized directly from it ([of_recursive]) and fed to the same
   {!Ir_construction.build_from_aggregate} run as the cold path —
   provably the same result (DESIGN.md §14).  The superset source is
   skipped entirely: under the validation invariant it is fully
   determined (abstain on recursive bytes, Data on gaps), which is where
   most of the single-binary speedup comes from; the worker fan-out
   covers the rest on multicore hosts.

   Any chunk that fails to validate abandons the whole build ([None]);
   the caller falls back to the serial cold build, so unsupported
   binaries are slow, never wrong.

   Determinism: validation is a yes/no question per chunk and the
   accepted aggregate is a pure function of the traversal, so the
   output is independent of worker count and scheduling by
   construction.  [jobs] is a ceiling, not a partition: the effective
   worker count is clamped to the host's core count (extra domains past
   the cores are pure spawn/GC-sync overhead) and to the chunk count.
   [jobs = 1] still uses the chunked path, just inline; callers wanting
   the exact cold build simply do not call this module. *)

module Agg = Disasm.Aggregate

exception Fallback

(* Frame [lo, hi) linearly from the traversal's own decode table and
   compare the framing against the recursive cover in the same pass,
   keeping nothing: the span of every local boundary must be attributed
   to it by the cover, and every undecodable byte must be unreached.
   Both sides read one table, so their instructions agree by
   construction and only the cover needs comparing.  Reads (and so
   fills) only the table entries of offsets inside the span. *)
let validate_span (rec_ : Disasm.Recursive.t) ~lo ~hi =
  let base = rec_.Disasm.Recursive.base and d = rec_.Disasm.Recursive.decoded in
  let cover = rec_.Disasm.Recursive.cover in
  let pos = ref lo in
  while !pos < hi do
    let ilen = Disasm.Decoded.length d (!pos - base) in
    if ilen > 0 then begin
      if !pos + ilen > hi then raise Fallback;
      for i = !pos to !pos + ilen - 1 do
        if cover.(i - base) <> !pos then raise Fallback
      done;
      pos := !pos + ilen
    end
    else begin
      if cover.(!pos - base) <> Disasm.Claim.unknown then raise Fallback;
      incr pos
    end
  done

(* The aggregate a fully validated tiling assembles, materialized from
   the traversal it was validated against: when every chunk of a tiling
   of the whole text validates, the per-chunk claims coincide with the
   recursive cover (boundaries are exactly the traversal's instructions,
   Code bytes are exactly the reached bytes, gaps stay Data), so reading
   the traversal is the merge.  No warnings can arise.  With
   [~infer:true] the aggregate carries the same pin hints the cold
   inference pass derives: a validated tiling has no ambiguity, so the
   cold pass performs exactly one computed-target resolution round over
   exactly these boundaries ({!Disasm.Infer.resolve_pins}). *)
let of_recursive ~infer binary (rec_ : Disasm.Recursive.t) =
  let base = rec_.Disasm.Recursive.base and len = rec_.Disasm.Recursive.len in
  let cover = rec_.Disasm.Recursive.cover in
  let verdicts = Array.make len Agg.Data in
  let boundaries = Agg.empty_boundaries len in
  for off = 0 to len - 1 do
    if cover.(off) >= 0 then verdicts.(off) <- Agg.Code;
    if cover.(off) = base + off then Agg.add_boundary boundaries rec_.Disasm.Recursive.decoded off
  done;
  {
    Agg.base;
    len;
    verdicts;
    boundaries;
    warnings = [];
    tally = Agg.tally_of_verdicts verdicts;
    refined = [];
    pin_hints =
      (if infer then Disasm.Infer.resolve_pins binary ~iter:(fun f -> Disasm.Recursive.iter f rec_)
       else []);
  }

(* Cut the text into ~[target]-byte validation tasks, as [(lo, hi)]
   address pairs, directly from the recursive cover.  Every cut lands on
   an instruction start or an unreached byte, so each chunk's linear
   framing enters in sync with the traversal it is validated against and
   no traversal instruction crosses a cut.  O(len) with no decoding.
   Soundness rests entirely on per-chunk validation, not on the cut
   choice. *)
let tile (rec_ : Disasm.Recursive.t) =
  let base = rec_.Disasm.Recursive.base and len = rec_.Disasm.Recursive.len in
  let cover = rec_.Disasm.Recursive.cover in
  let target = 8192 in
  let chunks = ref [] in
  let lo = ref 0 in
  while !lo < len do
    let p = ref (min len (!lo + target)) in
    while
      !p < len && not (cover.(!p) = Disasm.Claim.unknown || cover.(!p) = base + !p)
    do
      incr p
    done;
    chunks := (base + !lo, base + !p) :: !chunks;
    lo := !p
  done;
  Array.of_list (List.rev !chunks)

let build ~jobs ~pin_config ?(infer = false) ?decoded binary =
  let decoded = Disasm.Decoded.for_binary ?decoded binary in
  Obs.span "ir_par" (fun () ->
      let rec_ =
        Obs.span "recursive" (fun () -> Disasm.Recursive.traverse ~decoded binary)
      in
      let chunks = Obs.span "tile" (fun () -> tile rec_) in
      let n = Array.length chunks in
      if n = 0 then None
      else begin
        let workers =
          max 1 (min (min jobs n) (Domain.recommended_domain_count ()))
        in
        let failed = Atomic.make false in
        (* Worker [w] owns the contiguous block [n*w/workers, n*(w+1)/workers):
           pure validation, no results to store, earliest-possible exit
           once any domain has hit a fallback.  A worker reads and fills
           only the decode-table entries inside its own chunks, so the
           shared table sees disjoint writes. *)
        let run_block w =
          let first = n * w / workers and last = n * (w + 1) / workers in
          try
            for i = first to last - 1 do
              if not (Atomic.get failed) then
                let lo, hi = chunks.(i) in
                validate_span rec_ ~lo ~hi
            done
          with Fallback -> Atomic.set failed true
        in
        let domains =
          Array.init (workers - 1) (fun k ->
              Domain.spawn (fun () -> run_block (k + 1)))
        in
        let main_exn = (try run_block 0; None with e -> Some e) in
        (* Join every domain before re-raising anything: an unjoined
           domain must not outlive this call. *)
        let worker_exn =
          Array.fold_left
            (fun acc d ->
              match Domain.join d with
              | () -> acc
              | exception e -> (match acc with None -> Some e | some -> some))
            None domains
        in
        (match main_exn with Some e -> raise e | None -> ());
        (match worker_exn with Some e -> raise e | None -> ());
        if Atomic.get failed then None
        else
          let agg =
            Obs.span "stitch_merge" (fun () -> of_recursive ~infer binary rec_)
          in
          Some (Ir_construction.build_from_aggregate ~pin_config binary agg)
      end)
