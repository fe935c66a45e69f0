(** Traversal-validated IR construction for a single binary: the
    domain-parallel builder behind [--ir-jobs], and the delta cache's
    stitch ({!Delta} calls it with [~jobs:1]).

    Runs one fresh recursive traversal, tiles the text at that
    traversal's instruction starts and gap bytes, and fans the chunks
    out over worker domains as pure validation tasks ({!validate_span}).
    When every chunk validates, the merged claims provably coincide with
    the traversal, so the aggregate is materialized from it directly and
    fed to the same sorted-boundary IR build as the cold path — equal
    output by construction (DESIGN.md §14).  Returns [None] when any
    chunk fails to validate; the caller then falls back to
    {!Ir_construction.build}, so unsupported binaries are slow, never
    wrong. *)

val build :
  jobs:int ->
  pin_config:Analysis.Ibt.config ->
  ?infer:bool ->
  ?decoded:Disasm.Decoded.t ->
  Zelf.Binary.t ->
  Ir_construction.t option
(** Build the IR with up to [jobs] worker domains ([jobs] is clamped to
    the host core count and the chunk count; [jobs <= 1] runs the
    chunked path inline).  The result — verdicts, pins, row order, and
    therefore the rewritten bytes — is independent of [jobs] and
    identical to the serial cold build.  With [~infer:true] (default
    false) the materialized aggregate carries the inference pass's pin
    hints, recomputed over the validated traversal; a validated tiling
    has no ambiguity, so this coincides with the cold build under
    [--infer].  The traversal and the chunk tasks read [decoded] (a
    fresh table when absent); on [None] the caller passes the same table
    to its serial build, which then decodes only the offsets this build
    never reached. *)

exception Fallback

val validate_span : Disasm.Recursive.t -> lo:int -> hi:int -> unit
(** One chunk task: frame the addresses [\[lo, hi)] linearly from the
    traversal's own decode table and check the framing bidirectionally
    against the traversal's cover in the same pass — every local
    instruction's whole span attributed to its start, every undecodable
    byte unreached, no instruction crossing [hi].  Touches only the
    decode-table entries inside the span, so workers on disjoint spans
    may share one table.  Raises {!Fallback} on any disagreement. *)
