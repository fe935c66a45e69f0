(* Golden output digests: one MD5 per rewritten output, over a fixed set
   of scale-corpus members and configurations.  The byte-identity tests
   elsewhere compare two paths of the same build, so a change that alters
   every path alike would pass them all; this set pins the outputs
   themselves.  [gen_golden.exe] writes the file, [Test_golden] recomputes
   and compares. *)

module Scale = Workloads.Scale
module Pipeline = Zipr.Pipeline

let file = "golden/outputs.digest"

let transforms = [ Transforms.Null.transform ]

let digest_of config (item : Scale.item) =
  match
    Pipeline.rewrite_bytes ~config ~transforms (Zelf.Binary.serialize item.Scale.binary)
  with
  | Ok out -> Digest.to_hex (Digest.bytes out)
  | Error m -> "error:" ^ Digest.to_hex (Digest.string m)

let cases () =
  let null = Pipeline.default_config in
  let infer = { null with Pipeline.infer = true } in
  let par4 = { null with Pipeline.ir_jobs = 4 } in
  let scale = List.init 64 (fun i -> Scale.generate_one ~seed:1 i) in
  List.map (fun it -> ("null", null, it)) scale
  @ List.map (fun it -> ("infer", infer, it)) scale
  @ List.map (fun it -> ("irjobs4", par4, it)) (Scale.large_corpus ~seed:1 ~count:2 ())

(* One line per output: "<mode> <member name> <hex digest>". *)
let lines () =
  List.map
    (fun (mode, config, (it : Scale.item)) ->
      Printf.sprintf "%s %s %s" mode it.Scale.name (digest_of config it))
    (cases ())
