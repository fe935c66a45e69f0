(** Byte-budgeted LRU with an optional bounded disk layer — the one
    store behind {!Cache} (serialized IR snapshots) and the delta path's
    routine fragments and whole-IR memo.

    Payloads are held as given and shared by reference: a memory hit
    costs a hashtable probe, not a codec parse.  Thread-safe (one mutex
    per store).  The optional disk layer writes framed entries
    atomically (temp file + rename) through a caller-supplied codec;
    every entry embeds its key behind the store's header tag, so a
    renamed, truncated or corrupted file reads back as a miss. *)

type 'a disk = {
  dir : string;  (** created (with parents) if missing *)
  ext : string;  (** entry-file extension, e.g. [".zirc"] *)
  tag : string;  (** header tag framing every entry, e.g. ["ZIRCACHE1"] *)
  encode : 'a -> string;
  decode : string -> 'a option;  (** total: garbage decodes to [None] *)
  max_entries : int option;
      (** after each store, prune this store's entry files
          oldest-mtime-first until at most this many remain *)
  max_bytes : int option;  (** likewise, bound their total size *)
}
(** Pruning counts only files with this store's [ext], and the scan
    stays correct when several processes share the directory. *)

type 'a t

val create :
  ?capacity:int ->
  ?max_bytes:int ->
  ?disk:'a disk ->
  name:string ->
  weigh:('a -> int) ->
  unit ->
  'a t
(** [capacity] bounds the in-memory entry count (default 4096);
    [max_bytes] additionally bounds resident bytes (key length + [weigh]
    of the payload, summed over entries).  Inserting past either bound
    evicts least-recently-used entries until the newcomer fits; a
    payload weighing more than the whole budget is refused outright.
    No byte budget and no disk layer by default.

    [name] prefixes the Obs counters: [<name>.lookups], [.mem_hits],
    [.disk_hits], [.misses], [.stores], [.evictions], [.oversize_skips],
    [.disk_evictions] and the [.resident_bytes] Max gauge. *)

val find : 'a t -> string -> 'a option
(** Memory first, then disk (a disk hit is promoted into memory). *)

val store : 'a t -> key:string -> 'a -> unit

val dir : 'a t -> string option
(** The disk layer's directory, if any. *)

val mem_entries : 'a t -> int
val resident_bytes : 'a t -> int

val evictions : 'a t -> int
(** Entries evicted so far (capacity- or budget-triggered). *)

val oversize_skips : 'a t -> int
(** Payloads refused because they alone exceed [max_bytes]. *)

val disk_evictions : 'a t -> int
(** Entry files this store pruned to honour the disk bounds. *)
