(** Routine-granular chunking of the text segment (delta-rewriting
    support).

    [scan] makes one cheap linear-framing pass over the text and cuts it
    into chunks at routine boundaries — directly after no-fallthrough
    instructions, where linear framing restarts cleanly — falling back to
    content-defined (rolling-hash) cuts over stretches with no sync point.
    The same pass collects every statically visible reference into each
    chunk (direct branches, address-sized immediates, jump-table entries,
    data-section address words, the program entry), expressed relative to
    the chunk base, forming the chunk's {e inbound fingerprint}.

    Everything here is a pure function of the binary's bytes: two
    binaries that agree on a chunk's bytes, its 6-byte suffix and its
    inbound fingerprint get the same cache key for it, even at different
    load addresses (all fingerprint components are chunk-relative). *)

type ref_kind = Branch | Immediate | Table | Data_word | Entry_point

val ref_kind_code : ref_kind -> char

type chunk = {
  lo : int;
  hi : int;
  synced : bool;
      (** [lo] is a linear-framing restart point (CDC cuts are unsynced) *)
  inbound : (ref_kind * int) list;  (** sorted (kind, target - lo) pairs *)
}

type t = { base : int; len : int; chunks : chunk array }

val scan : ?decoded:Decoded.t -> Zelf.Binary.t -> t
(** Reads candidates from [decoded] (a fresh table when absent). *)

val chunk_bytes : Zelf.Binary.t -> chunk -> string
(** The chunk's raw text bytes. *)

val chunk_suffix : Zelf.Binary.t -> chunk -> string
(** Up to 6 bytes directly after the chunk (decode attempts near the end
    of a chunk can read this far); part of the key material. *)

val inbound_string : chunk -> string
(** Canonical rendering of [inbound] for key derivation. *)
