let grow a i fill =
  let len = Array.length a in
  let bigger = Array.make (max (2 * len) (i + 1)) fill in
  Array.blit a 0 bigger 0 len;
  bigger
