(* The snapshot store: {!Rcache} at [string], framed on disk as
   [ZIRCACHE1 <key>] in [.zirc] files. *)

type t = string Rcache.t

let create ?(capacity = 64) ?max_bytes ?dir ?max_disk_entries ?max_disk_bytes () =
  let disk =
    Option.map
      (fun dir ->
        {
          Rcache.dir;
          ext = ".zirc";
          tag = "ZIRCACHE1";
          encode = Fun.id;
          decode = Option.some;
          max_entries = max_disk_entries;
          max_bytes = max_disk_bytes;
        })
      dir
  in
  Rcache.create ~capacity ?max_bytes ?disk ~name:"irdb.cache" ~weigh:String.length ()

(* Length-prefix every part so ["ab"; "c"] and ["a"; "bc"] hash apart. *)
let key parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let find = Rcache.find
let store = Rcache.store
let dir = Rcache.dir
let mem_entries = Rcache.mem_entries
let resident_bytes = Rcache.resident_bytes
let evictions = Rcache.evictions
let oversize_skips = Rcache.oversize_skips
let disk_evictions = Rcache.disk_evictions
