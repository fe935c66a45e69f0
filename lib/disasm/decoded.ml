(* ilen.(off): -1 = not yet decoded, 0 = no candidate, > 0 = length of
   the candidate whose instruction is insn.(off). *)
type t = {
  binary : Zelf.Binary.t;
  text : bytes;
  base : int;
  len : int;
  ilen : int array;
  insn : Zvm.Insn.t array;
}

let create binary =
  let text = Zelf.Binary.text binary in
  let len = text.Zelf.Section.size in
  {
    binary;
    text = text.Zelf.Section.data;
    base = text.Zelf.Section.vaddr;
    len;
    ilen = Array.make len (-1);
    insn = Array.make len Zvm.Insn.Nop;
  }

let for_binary ?decoded binary =
  match decoded with
  | None -> create binary
  | Some t when t.binary == binary -> t
  | Some _ -> invalid_arg "Decoded.for_binary: table made for another binary"

let base t = t.base
let len t = t.len

(* Decoding from the section's own bytes equals decoding through
   [Zelf.Binary.read8] plus the spill rule: the decoder reads only bytes
   inside the instruction it returns, so a candidate that fits in the
   text sees the same bytes either way, and one that needs a byte past
   the end is [Truncated] here and spilled there. *)
let decode t off =
  match Zvm.Decode.decode_bytes t.text ~pos:off with
  | Ok (insn, n) when off + n <= t.len ->
      t.insn.(off) <- insn;
      t.ilen.(off) <- n;
      n
  | Ok _ | Error _ ->
      t.ilen.(off) <- 0;
      0

let length t off =
  let n = t.ilen.(off) in
  if n >= 0 then n else decode t off

let insn t off = t.insn.(off)

let fill t =
  for off = 0 to t.len - 1 do
    ignore (length t off)
  done
