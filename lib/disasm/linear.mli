(** Linear-sweep disassembly (the objdump-like tool of the paper's
    aggregation).

    Decodes the text section front to back: each successful decode claims
    its bytes as code and the sweep continues at the following
    instruction; an undecodable byte is claimed as data and the sweep
    resynchronizes at the next byte.  Linear sweep classifies {e every}
    byte, but misclassifies data that happens to decode (the fundamental
    weakness the paper's case analysis addresses). *)

type t = {
  base : int;  (** text section load address *)
  len : int;
  cover : int array;
      (** per byte: start address of the covering instruction, or
          [Claim.data]; a boundary's instruction is [decoded]'s entry *)
  decoded : Decoded.t;
}

val sweep : ?decoded:Decoded.t -> Zelf.Binary.t -> t
(** Sweep the binary's text section, reading candidates from [decoded]
    (a fresh table when absent). *)
