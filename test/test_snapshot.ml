(* The dependency-free JSON reader: value round-trips and positioned
   rejection of corrupt input. *)

module J = Dmx_model.Json

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let err = function
  | Error e -> e
  | Ok _ -> Alcotest.fail "parse unexpectedly succeeded"

(* ---- the JSON reader ---- *)

let test_json_values () =
  let p s = match J.parse s with
    | Ok v -> v
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  Alcotest.(check bool) "null" true (p " null " = J.Null);
  Alcotest.(check bool) "bools" true
    (p "[true,false]" = J.List [ J.Bool true; J.Bool false ]);
  Alcotest.(check bool) "numbers" true
    (p "[0, -1.5, 2e3, 1.25e-2]"
     = J.List [ J.Number 0.0; J.Number (-1.5); J.Number 2000.0;
                J.Number 0.0125 ]);
  Alcotest.(check bool) "escapes" true
    (p {|"a\"b\\c\nd\tA"|} = J.String "a\"b\\c\nd\tA");
  Alcotest.(check bool) "nested object" true
    (p {|{"a":{"b":[1]},"c":""}|}
     = J.Obj [ ("a", J.Obj [ ("b", J.List [ J.Number 1.0 ]) ]);
               ("c", J.String "") ])

let test_json_rejects_bad_input () =
  let rejects name s sub =
    let e = err (J.parse s) in
    Alcotest.(check bool) (name ^ ": offset cited") true (contains e "offset");
    Alcotest.(check bool) (name ^ ": " ^ sub) true (contains e sub)
  in
  rejects "empty" "" "unexpected end of input";
  rejects "truncated object" {|{"a": 1|} "unterminated object";
  rejects "truncated string" {|"abc|} "unterminated string";
  rejects "bad escape" {|"\q"|} "escape";
  rejects "trailing garbage" "1 x" "trailing";
  rejects "bare word" "flase" "bad literal";
  rejects "missing colon" {|{"a" 1}|} "expected ':'"

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("json: values round-trip", test_json_values);
      ("json: bad input rejected with offsets", test_json_rejects_bad_input);
    ]
