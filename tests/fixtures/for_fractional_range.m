% A counted loop over a fractional range. (0.6 - 0) / 0.1 is
% 5.999999999999999, so the range 0:0.1:0.6 holds six values,
% t = 0 + k*0.1 for k = 0..5; a running t = t + 0.1 would drift and
% count seven.
c = 0;
s = 0;
for t = 0:0.1:0.6
  c = c + 1;
  s = s + t;
end
