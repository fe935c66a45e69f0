(** A uniform view of one disassembler's output, for N-way aggregation.

    The paper's methodology "can aggregate the output of multiple
    disassemblers" and keep "the flexibility to include the output of
    new disassemblers" (§II-A1); this is the interface a new tool plugs
    into.  A source reports, per text byte, either the start address of
    the instruction covering it, a conclusive data claim, or abstention
    (a cover array over the decode table), and a {e confidence} level.
    High confidence means the tool only claims code it has strong
    evidence for (recursive traversal); low confidence means its code
    claims may be misdecoded data (linear sweep, speculative
    disassembly). *)

type confidence = High | Low

type kind =
  | Primary
      (** participates in the conservative four-case verdict (the paper's
          aggregation) *)
  | Refiner
      (** evidence-only: may flip bytes the primaries left ambiguous, never
          a byte they agreed on (see {!Aggregate.combine_sources}) *)

type t = {
  name : string;
  base : int;
  len : int;
  claims : int array;
      (** per text byte: the start address of the covering instruction,
          [Claim.data] or [Claim.unknown].  Text offset [off] is one of the
          source's instruction boundaries iff [claims.(off) = base + off] *)
  decoded : Decoded.t;  (** the table every boundary's instruction is read from *)
  confidence : confidence;
  kind : kind;
  tags : string array;
      (** per-byte provenance of each claim (the inference fact that
          produced it); [[||]] for sources that do not track provenance *)
}

val of_linear : Linear.t -> t
(** Low confidence; abstains nowhere (everything is code or data).
    Shares the sweep's cover array. *)

val of_recursive : Recursive.t -> t
(** High confidence; abstains on unreached bytes.  Shares the
    traversal's cover array. *)

val tag_at : t -> int -> string
(** Provenance tag at a text {e offset} (not address); [""] when the
    source tracks none. *)
