(** Chunk-level stitching machinery shared by the delta cache
    ({!Delta}) and the domain-parallel IR builder ({!Par_ir}).

    A whole-text disassembly aggregate is rebuilt from per-chunk
    instruction framings and accepted only after bidirectional
    validation against a fresh recursive traversal — the exact condition
    under which the result provably coincides with
    {!Disasm.Aggregate.run}'s (see DESIGN.md §12 and §14).  Validation
    failure raises {!Fallback}; callers then rebuild cold, so
    unsupported binaries are slow, never wrong. *)

type fragment = { boundaries : (int * Zvm.Insn.t * int) array }
(** Per-chunk instruction framing: (chunk-relative start, instruction,
    encoded length), ascending and non-overlapping within the chunk. *)

exception Fallback

type scratch
(** Reusable per-domain working memory (claim buffer for
    {!local_linear}, expected-cover array for {!validate_chunk}): tight
    loops over thousands of chunks allocate once per domain instead of
    once per chunk.  Never share one scratch across domains. *)

val scratch : unit -> scratch

val local_linear : ?scratch:scratch -> Disasm.Decoded.t -> Disasm.Chunker.chunk -> fragment
(** Linear-framing decode of one chunk in isolation — a pure function of
    the chunk bytes and the decode lookahead, equal to the global
    sweep's framing inside the chunk.  Reads (and so fills) only the
    decode-table entries of offsets inside the chunk.  Raises
    {!Fallback} if an instruction would cross the chunk's upper cut. *)

val validate_chunk :
  ?scratch:scratch -> Disasm.Recursive.t -> Disasm.Chunker.chunk -> fragment -> unit
(** Bidirectional check of one chunk's framing against the recursive
    traversal: every boundary the traversal's decode-table entry (cached
    fragments may come from another version of the binary), every
    recursive byte covered by a boundary with that start, every gap byte
    unreached.  Raises {!Fallback} on any disagreement. *)

val validate_span : Disasm.Recursive.t -> Disasm.Chunker.chunk -> unit
(** Fused, allocation-free equivalent of {!local_linear} followed by
    {!validate_chunk}: frames the chunk linearly from the traversal's own
    decode table and compares it against the recursive cover in the same
    pass, keeping nothing.  Like {!local_linear} it touches only the
    decode-table entries inside the chunk, so workers on disjoint chunks
    may share one table.  This is the parallel IR builder's chunk task —
    a pure validator.  Raises {!Fallback} on any disagreement. *)

val of_recursive :
  ?infer:bool -> Zelf.Binary.t -> Disasm.Recursive.t -> Disasm.Aggregate.t
(** The aggregate a tiling of the whole text assembles once every chunk
    has validated, materialized directly from the traversal it was
    validated against: the validated claims coincide with the recursive
    cover, so reading the traversal is the merge of the fragments without
    re-walking any.  Code on reached bytes, Data on the rest, no
    warnings; equal to the cold aggregate under the validation
    invariant.  With [~infer:true] (default false) the aggregate also
    carries the pin hints the cold inference pass would derive: a
    validated tiling has no ambiguity, so the cold pass reduces to one
    computed-target resolution round over exactly these boundaries
    ({!Disasm.Infer.resolve_pins}). *)
