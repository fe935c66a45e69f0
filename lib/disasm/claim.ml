(* The sentinels of a source's cover array ([Source.t.claims]), whose
   other entries are start addresses of covering instructions. *)
let unknown = -1 (* the source abstains on this byte *)
let data = -2 (* the source conclusively calls this byte data *)
