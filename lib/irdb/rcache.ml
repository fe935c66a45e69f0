(* A mutex-protected, byte-budgeted LRU with an optional bounded disk
   layer — the one store behind every IR cache in the tree.

   Payload type is a parameter: {!Cache} instantiates it at [string]
   (serialized IR snapshots); the delta path at routine-fragment keys and
   assembled IR, shared by reference so a hit costs a hashtable probe,
   not a parse.  The caller supplies a [weigh] function (approximate
   resident bytes) for the byte budget, and optionally a disk layer: a
   codec pair, an entry-file extension and a header tag.  Disk writes
   go through a temp file + atomic rename; every entry embeds its own
   key behind the tag, so corruption or renaming reads back as a miss,
   never as a wrong payload. *)

type 'a disk = {
  dir : string;
  ext : string;
  tag : string;
  encode : 'a -> string;
  decode : string -> 'a option;
  max_entries : int option;
  max_bytes : int option;
}

(* Obs counter names, built once so the disabled path stays
   allocation-free. *)
type names = {
  lookups : string;
  mem_hits : string;
  disk_hits : string;
  misses : string;
  stores : string;
  evictions : string;
  oversize_skips : string;
  resident_bytes : string;
  disk_evictions : string;
}

type 'a t = {
  names : names;
  capacity : int;
  max_bytes : int option;
  weigh : 'a -> int;
  disk : 'a disk option;
  lock : Mutex.t;
  entries : (string, 'a) Hashtbl.t;
  last_use : (string, int) Hashtbl.t;
  mutable tick : int;
  mutable resident : int;  (* sum of entry_bytes over [entries] *)
  mutable evicted : int;
  mutable oversize : int;
  mutable disk_evicted : int;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(capacity = 4096) ?max_bytes ?disk ~name ~weigh () =
  let disk =
    Option.map
      (fun d ->
        mkdir_p d.dir;
        {
          d with
          max_entries = Option.map (max 1) d.max_entries;
          max_bytes = Option.map (max 1) d.max_bytes;
        })
      disk
  in
  let n suffix = name ^ "." ^ suffix in
  {
    names =
      {
        lookups = n "lookups";
        mem_hits = n "mem_hits";
        disk_hits = n "disk_hits";
        misses = n "misses";
        stores = n "stores";
        evictions = n "evictions";
        oversize_skips = n "oversize_skips";
        resident_bytes = n "resident_bytes";
        disk_evictions = n "disk_evictions";
      };
    capacity = max 1 capacity;
    max_bytes = Option.map (max 1) max_bytes;
    weigh;
    disk;
    lock = Mutex.create ();
    entries = Hashtbl.create 256;
    last_use = Hashtbl.create 256;
    tick = 0;
    resident = 0;
    evicted = 0;
    oversize = 0;
    disk_evicted = 0;
  }

let dir t = Option.map (fun d -> d.dir) t.disk

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t k =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.last_use k t.tick

(* What an entry charges against the byte budget: its key plus the
   caller's estimate of the payload. *)
let entry_bytes t k v = String.length k + t.weigh v

let evict_one t =
  let age k = Option.value (Hashtbl.find_opt t.last_use k) ~default:0 in
  let victim =
    Hashtbl.fold
      (fun k _ acc -> match acc with Some k' when age k' <= age k -> acc | _ -> Some k)
      t.entries None
  in
  match victim with
  | Some k ->
      (match Hashtbl.find_opt t.entries k with
      | Some v -> t.resident <- t.resident - entry_bytes t k v
      | None -> ());
      Hashtbl.remove t.entries k;
      Hashtbl.remove t.last_use k;
      t.evicted <- t.evicted + 1;
      Obs.count t.names.evictions 1
  | None ->
      Hashtbl.reset t.entries;
      t.resident <- 0

(* Insert under both bounds: at most [capacity] entries, and — when a
   byte budget is set — at most [max_bytes] resident bytes.  Eviction is
   strictly least-recently-used for both triggers.  A payload that alone
   exceeds the budget is not admitted at all (evicting the whole cache
   for one entry that still would not fit buys nothing). *)
let insert t k v =
  (match Hashtbl.find_opt t.entries k with
  | Some old ->
      t.resident <- t.resident - entry_bytes t k old;
      Hashtbl.remove t.entries k;
      Hashtbl.remove t.last_use k
  | None -> ());
  let sz = entry_bytes t k v in
  match t.max_bytes with
  | Some budget when sz > budget ->
      t.oversize <- t.oversize + 1;
      Obs.count t.names.oversize_skips 1
  | _ ->
      let over_budget () =
        match t.max_bytes with Some budget -> t.resident + sz > budget | None -> false
      in
      while
        Hashtbl.length t.entries > 0
        && (Hashtbl.length t.entries >= t.capacity || over_budget ())
      do
        evict_one t
      done;
      Hashtbl.replace t.entries k v;
      t.resident <- t.resident + sz;
      touch t k;
      Obs.gauge_max t.names.resident_bytes t.resident

(* -- disk layer -- *)

let entry_path d k = Filename.concat d.dir (k ^ d.ext)

let header d k = d.tag ^ " " ^ k ^ "\n"

let unframe d k s =
  let h = header d k in
  let hl = String.length h in
  if String.length s >= hl && String.sub s 0 hl = h then
    Some (String.sub s hl (String.length s - hl))
  else None

let read_file p =
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try Some (really_input_string ic (in_channel_length ic))
          with Sys_error _ | End_of_file -> None)

let disk_find t k =
  match t.disk with
  | None -> None
  | Some d ->
      Option.bind (read_file (entry_path d k)) (fun s -> Option.bind (unframe d k s) d.decode)

(* Bound the directory after a write.  The scan is O(entries) per store,
   which is fine at cache scale, and — unlike an in-memory shadow count —
   stays correct when several processes share the directory.  Only this
   store's extension is counted, so stores sharing a directory bound
   independently.  Oldest mtime goes first: a coarse LRU (reads do not
   touch files), but eviction order only affects future hit rates, never
   correctness. *)
let prune_disk t d =
  match (d.max_entries, d.max_bytes) with
  | None, None -> ()
  | _ -> (
      try
        let files =
          Sys.readdir d.dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f d.ext)
          |> List.filter_map (fun f ->
                 let p = Filename.concat d.dir f in
                 match Unix.stat p with
                 | { Unix.st_mtime; st_size; _ } -> Some (st_mtime, st_size, p)
                 | exception Unix.Unix_error _ -> None)
          |> List.sort compare
        in
        let count = ref (List.length files) in
        let bytes = ref (List.fold_left (fun a (_, sz, _) -> a + sz) 0 files) in
        let over () =
          (match d.max_entries with Some n -> !count > n | None -> false)
          || match d.max_bytes with Some b -> !bytes > b | None -> false
        in
        List.iter
          (fun (_, sz, p) ->
            if over () then begin
              (try Sys.remove p with Sys_error _ -> ());
              decr count;
              bytes := !bytes - sz;
              t.disk_evicted <- t.disk_evicted + 1;
              Obs.count t.names.disk_evictions 1
            end)
          files
      with Sys_error _ -> ())

let disk_store t k v =
  match t.disk with
  | None -> ()
  | Some d -> (
      (* Write-to-temp + rename keeps concurrent readers (and workers on
         other domains writing the same key) from ever observing a partial
         entry; the domain id keeps temp names from colliding. *)
      let tmp =
        Filename.concat d.dir (Printf.sprintf ".tmp.%s.%d" k (Domain.self () :> int))
      in
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (header d k);
            output_string oc (d.encode v));
        Sys.rename tmp (entry_path d k);
        prune_disk t d
      with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

(* -- lookup / store -- *)

let find t k =
  Obs.count t.names.lookups 1;
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries k with
      | Some v ->
          touch t k;
          Obs.count t.names.mem_hits 1;
          Some v
      | None -> (
          match disk_find t k with
          | Some v ->
              insert t k v;
              Obs.count t.names.disk_hits 1;
              Some v
          | None ->
              Obs.count t.names.misses 1;
              None))

let store t ~key:k v =
  Obs.count t.names.stores 1;
  with_lock t (fun () ->
      insert t k v;
      disk_store t k v)

let mem_entries t = with_lock t (fun () -> Hashtbl.length t.entries)
let resident_bytes t = with_lock t (fun () -> t.resident)
let evictions t = with_lock t (fun () -> t.evicted)
let oversize_skips t = with_lock t (fun () -> t.oversize)
let disk_evictions t = with_lock t (fun () -> t.disk_evicted)
