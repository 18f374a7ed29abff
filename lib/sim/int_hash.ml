let mix x = x * 0x1E3779B97F4A7C15

let hash x =
  let h = mix x in
  h lxor (h lsr 32)

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = hash
end)
