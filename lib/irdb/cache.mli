(** Content-addressed store for IR snapshots.

    IR construction is the dominant pipeline phase (see DESIGN.md's phase
    cost table), yet for a fixed input binary and pin configuration it is
    a pure function — so the fuzz harness and [Corpus.rewrite_all], which
    revisit the same binaries many times, can skip it entirely.  This
    module is the store: payloads (serialized IR snapshots, opaque
    strings here) are addressed by a digest of everything that determines
    them, so a stale entry is structurally unreachable rather than merely
    invalidated.

    The store is an {!Rcache} over strings: a mutex-protected in-memory
    LRU with an optional on-disk layer ([ziprtool batch --cache DIR]) of
    [.zirc] files framed as [ZIRCACHE1 <key>].  Disk entries embed their
    own key, so corruption or renaming reads back as a miss, never as a
    wrong payload; writes go through a temp file + atomic rename, so
    concurrent domains racing on one key each publish a complete entry.
    All operations are safe to call from multiple domains sharing one
    [t].  Obs counters: [irdb.cache.*] (see {!Rcache.create}). *)

type t

val create :
  ?capacity:int ->
  ?max_bytes:int ->
  ?dir:string ->
  ?max_disk_entries:int ->
  ?max_disk_bytes:int ->
  unit ->
  t
(** [capacity] bounds the in-memory entry count (default 64; least
    recently used entries are evicted).  [max_bytes] additionally bounds
    the total resident bytes (key + payload per entry): inserting past
    the budget evicts least-recently-used entries until the newcomer
    fits, and a single entry larger than the whole budget is not
    admitted at all ({!oversize_skips} counts those).  With no
    [max_bytes] the store is entry-count bounded only.  [dir] enables
    the disk layer; the directory is created if missing.

    [max_disk_entries] / [max_disk_bytes] bound the disk layer: after
    each store the directory is pruned oldest-mtime-first until both
    bounds hold ({!disk_evictions} counts removals).  The scan-based
    prune stays correct when several processes share the directory.
    Unbounded by default (the pre-existing behaviour). *)

val key : string list -> string
(** Digest of the given parts (length-prefixed, so part boundaries are
    unambiguous).  Callers include every input that determines the
    payload: codec version, input bytes, configuration fingerprint. *)

val find : t -> string -> string option
(** Memory first, then disk (a disk hit is promoted into memory). *)

val store : t -> key:string -> string -> unit

val dir : t -> string option

val mem_entries : t -> int
(** In-memory entry count, for tests of the eviction policy. *)

val resident_bytes : t -> int
(** Total bytes the in-memory layer currently holds (sum over entries of
    key + payload length).  Always [<= max_bytes] when a budget is set. *)

val evictions : t -> int
(** Entries evicted so far (capacity- or budget-triggered). *)

val oversize_skips : t -> int
(** Payloads refused because they alone exceed [max_bytes]. *)

val disk_evictions : t -> int
(** Disk entries this [t] pruned to keep the directory within
    [max_disk_entries] / [max_disk_bytes]. *)
