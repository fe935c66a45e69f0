(* Recomputes every golden output digest and compares it with the pinned
   file (see golden.ml for how the file is generated). *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_digests () =
  let pinned = read_lines Golden.file in
  let now = Golden.lines () in
  Alcotest.(check int) "one digest per output" (List.length pinned) (List.length now);
  List.iter2 (fun p n -> Alcotest.(check string) "output digest" p n) pinned now

let suite = [ Alcotest.test_case "outputs match the pinned digests" `Slow test_digests ]
