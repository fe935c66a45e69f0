type confidence = High | Low

type kind = Primary | Refiner

type t = {
  name : string;
  base : int;
  len : int;
  claims : int array;
  decoded : Decoded.t;
  confidence : confidence;
  kind : kind;
  tags : string array;
}

let tag_at t off =
  if Array.length t.tags = 0 || off < 0 || off >= t.len then "" else t.tags.(off)

let of_linear (lin : Linear.t) =
  {
    name = "linear-sweep";
    base = lin.Linear.base;
    len = lin.Linear.len;
    claims = lin.Linear.cover;
    decoded = lin.Linear.decoded;
    confidence = Low;
    kind = Primary;
    tags = [||];
  }

let of_recursive (r : Recursive.t) =
  {
    name = "recursive-traversal";
    base = r.Recursive.base;
    len = r.Recursive.len;
    claims = r.Recursive.cover;
    decoded = r.Recursive.decoded;
    confidence = High;
    kind = Primary;
    tags = [||];
  }
