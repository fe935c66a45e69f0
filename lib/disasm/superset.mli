(** Superset (speculative) disassembly.

    The third aggregation source, in the lineage of superset and
    probabilistic disassembly: decode a candidate instruction at {e every}
    byte offset, then prune candidates that provably flow into garbage —
    a valid instruction cannot fall through to, or branch to, an
    undecodable byte inside the text — iterating to a fixpoint.  The
    surviving candidates are scored by how many other survivors reference
    them (branch targets accumulate evidence), and a maximal
    non-overlapping tiling is chosen greedily from the best-scored seeds.

    To stay regression-free in the aggregation it deliberately {e
    abstains} wherever recursive traversal already has an answer: its
    value is better instruction boundaries in the regions no
    high-confidence tool reaches (data islands, computed-jump-only code),
    which sharpen the fixed-range CFGs and the [Fixed_target] pin
    analysis. *)

val run :
  ?decoded:Decoded.t -> ?alive:bool array -> Zelf.Binary.t -> avoid:Recursive.t -> Source.t
(** Speculative source for the binary's text section, abstaining on bytes
    [avoid] covers.  Reads candidates from [decoded] (a fresh table when
    absent), decoding every offset.  [alive] is {!prune_fixpoint}'s
    result over the same table, computed here when absent. *)

val prune_fixpoint : ?decoded:Decoded.t -> Zelf.Binary.t -> bool array
(** Per text byte, is there a {e surviving} candidate instruction
    starting at that offset after invalid-flow pruning?  The input to
    the greedy tiling and to {!Infer}'s fact propagation. *)
