(** One decode table per binary's text section, shared by every
    disassembly source.

    Entry [off] is the candidate instruction starting at text offset
    [off]: exactly what [Zvm.Decode.decode ~fetch:(Zelf.Binary.read8
    binary)] gives at [base + off], after the "spills past the text end
    means no candidate" rule every source applies.  Entries are filled
    lazily, on first read, from the text section's bytes, so each offset
    is decoded at most once however many sources read it.

    Reading an entry writes only that entry.  Several domains may
    therefore share one table as long as each reads (and so fills) only
    offsets no other domain touches at the same time; the parallel IR
    builder's workers each stay inside their own chunk. *)

type t

val create : Zelf.Binary.t -> t
(** An empty table over the binary's text section; allocates two
    text-length arrays and decodes nothing. *)

val for_binary : ?decoded:t -> Zelf.Binary.t -> t
(** The given table, or a fresh one.  Raises [Invalid_argument] when the
    given table was made for a different binary. *)

val base : t -> int
(** Load address of the text section. *)

val len : t -> int
(** Text section size in bytes. *)

val length : t -> int -> int
(** [length t off]: encoded length of the candidate at text offset [off],
    or [0] when the bytes there do not decode or the instruction would
    spill past the text end.  Decodes the entry on first use. *)

val insn : t -> int -> Zvm.Insn.t
(** The candidate at [off]; meaningful only once [length t off > 0]. *)

val fill : t -> unit
(** Decode every entry not yet decoded. *)
