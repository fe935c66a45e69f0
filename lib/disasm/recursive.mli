(** Recursive-traversal disassembly (the IDA-Pro-like tool of the paper's
    aggregation).

    Starts from high-confidence entry points — the program entry, direct
    call/branch targets, address constants found by scanning data
    sections, and jump-table contents — and follows control flow.  Bytes
    it reaches are claimed as code with high confidence; bytes it never
    reaches are left unclassified.  That abstention is exactly what the
    aggregation needs: recursive traversal rarely lies, but it is
    incomplete on code reached only through computations it cannot
    model. *)

type t = {
  base : int;
  len : int;
  cover : int array;
      (** per byte: covering instruction start, or [Claim.unknown] if
          unreached; a boundary's instruction is [decoded]'s entry *)
  decoded : Decoded.t;
}

val traverse : ?decoded:Decoded.t -> Zelf.Binary.t -> t
(** Traverse from the seeds, reading candidates from [decoded] (a fresh
    table when absent). *)

val reached : t -> int -> bool

val starts_at : t -> int -> bool
(** Is the address the start of a traversed instruction? *)

val iter : (int -> Zvm.Insn.t -> int -> unit) -> t -> unit
(** [iter f t] calls [f addr insn len] on every traversed instruction,
    by ascending address. *)

val scan_for_text_addresses : Zelf.Binary.t -> int list
(** Every 32-bit little-endian word, at any byte offset of any non-text
    section, whose value lies inside the text section.  The classic
    conservative address-constant scan (also used by the pinned-address
    analysis). *)

val immediate_code_refs : lo:int -> hi:int -> Zvm.Insn.t -> int list
(** Address-sized immediates of an instruction that fall in [\[lo, hi)]
    (function-pointer materialization, return-address tricks). *)

val jump_table_entries : Zelf.Binary.t -> lo:int -> hi:int -> int -> int list
(** The jump-table heuristic: consecutive words from the table address
    that are addresses in [\[lo, hi)], at most 256. *)
