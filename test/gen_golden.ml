(* Writes the golden output digests to stdout; run from the repo root:
     dune exec test/gen_golden.exe > test/golden/outputs.digest *)

let () = List.iter print_endline (Golden.lines ())
