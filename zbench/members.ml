(* Seeded draws of workload inputs.  A draw is a pure function of the
   benchmark seed; the program under test only ever sees the generated
   bytes. *)

module Rng = Zipr_util.Rng

type t = {
  name : string;
  index : int;  (** position in its population; keys the oracle's inputs *)
  raw : bytes;  (** the serialized input, all the program receives *)
}

let of_item ~index (it : Workloads.Scale.item) =
  { name = it.name; index; raw = Zelf.Binary.serialize it.binary }

(* The input parsed back, for the oracle; only what the program would
   parse is kept between phases. *)
let binary m =
  match Zelf.Binary.parse m.raw with
  | Ok b -> b
  | Error e -> failwith (Format.asprintf "%s: %a" m.name Zelf.Binary.pp_parse_error e)

(* ["sc0042-frag.zbf"] -> ["frag"] *)
let class_of m =
  match String.index_opt m.name '-' with
  | Some i -> (
      let rest = String.sub m.name (i + 1) (String.length m.name - i - 1) in
      match String.index_opt rest '.' with Some j -> String.sub rest 0 j | None -> rest)
  | None -> m.name

(* Draws from [Workloads.Scale.corpus] take members of this fixed
   population: the 1k-member corpus at its default seed. *)
let scale_population = 1000

(* Scale members whose rewrite is known to behave differently from the
   original.  A workload must be one on which no operation fails, so no
   draw takes them; every scale-cold run still rewrites them, runs the
   oracle on them and prints whether the defect stands, so it shows in
   every run's output until the program is fixed and they can return to
   the population. *)
let known_miscompiled =
  [
    ( 805,
      "a call into a helper loses its target (the rewritten instruction is `call +0`), so \
       the helper is skipped and a handler transmits another value" );
  ]

(* [n] split over [counts] in proportion, the remainder going to the
   largest fractional shares. *)
let quotas counts n =
  let total = List.fold_left (fun a (_, k) -> a + k) 0 counts in
  let base = List.map (fun (c, k) -> (c, n * k / total, n * k mod total)) counts in
  let short = n - List.fold_left (fun a (_, q, _) -> a + q) 0 base in
  let by_rem = List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) base in
  let bumped = List.filteri (fun i _ -> i < short) by_rem |> List.map (fun (c, _, _) -> c) in
  List.map (fun (c, q, _) -> (c, if List.mem c bumped then q + 1 else q)) base

(* A seeded draw of [n] members of the 1k scale corpus, stratified by
   class and size: each class gets its share of [n] in proportion to its
   share of the population, its members sorted by input size are cut into
   that many consecutive strata, and the seed picks one member per
   stratum.  [~skip] leaves whole classes out, and no draw takes a
   member of [known_miscompiled].  Two seeds thus differ in members, not
   in class mix or size profile, which is what keeps latency and overhead
   comparable across seeds.

   A run uses a prefix of the draw (the part of a cycle a timed window
   ends in, or the first touches a serve run reaches), and a few large
   members of the pathological class cost several times the mean, so the
   order keeps every prefix stratified too: within a class, the member of
   stratum k takes place frac(k * golden + u) (u seeded), which spreads
   any run of places over the size range; the classes are then merged so
   that the j-th member of a class with q members comes at (j + 1/2) / q
   of the draw. *)
let scale ?(skip = []) ~seed ~n () =
  let rng = Rng.create seed in
  let generate index = of_item ~index (Workloads.Scale.generate_one ~seed:1 index) in
  (* (index, class, size) of the whole population; only the drawn
     members are kept, generated again. *)
  let population =
    List.init scale_population (fun index ->
        let m = generate index in
        (index, class_of m, Bytes.length m.raw))
    |> List.filter (fun (index, _, _) -> not (List.mem_assoc index known_miscompiled))
  in
  let counts =
    List.filter_map (fun (_, c, _) -> if List.mem c skip then None else Some c) population
    |> List.sort_uniq compare
    |> List.map (fun c -> (c, List.length (List.filter (fun (_, c', _) -> c' = c) population)))
  in
  let golden = 0.6180339887498949 in
  List.concat_map
    (fun (c, q) ->
      let pop =
        List.filter (fun (_, c', _) -> c' = c) population
        |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b)
        |> Array.of_list
      in
      let len = Array.length pop and q = min q (Array.length pop) in
      let u = Rng.float rng 1.0 in
      List.init q (fun k ->
          let lo = k * len / q and hi = (k + 1) * len / q in
          let index, _, _ = pop.(lo + Rng.int rng (max 1 (hi - lo))) in
          (Float.rem ((float_of_int k *. golden) +. u) 1.0, index))
      |> List.sort compare
      |> List.mapi (fun j (_, index) -> ((float_of_int j +. 0.5) /. float_of_int q, c, index)))
    (quotas counts n)
  |> List.sort compare
  |> List.map (fun (_, _, index) -> generate index)

(* The first [n] members of the large class (>= 256 KiB of text), in
   index order, whatever the seed: a run affords only a few dozen of
   these heavy rewrites, so every seed measures the same binaries. *)
let large ~seed:_ ~n () =
  List.init n (fun index -> of_item ~index (Workloads.Scale.generate_large ~seed:1 index))
