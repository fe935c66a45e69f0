(** Assembly listings: the inverse of {!Parser}.

    Renders a binary's aggregate disassembly as a textual program the
    parser accepts back, with synthesized labels at branch targets and
    data runs emitted as [.byte] directives.  The round trip
    [assemble (print (disassemble b))] yields a binary with identical
    per-instruction behaviour (addresses are preserved by emitting
    explicit section bases), which is both a usable decompiler-lite and a
    strong cross-check between the decoder, the parser and the
    assembler. *)

val section_listing : Zelf.Binary.t -> string
(** Listing for the binary's text section, over the aggregate
    disassembler's instruction boundaries. *)

val program_listing : Zelf.Binary.t -> string
(** Full reparseable program: text listing plus every data section as
    directives and the entry declaration. *)
